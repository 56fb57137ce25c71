"""DynaFlow: lattice-generic dataflow analyses over the VM64 CFG.

The package provides a small worklist solver (:mod:`framework`) and
three clients used by the customization pipeline:

* :mod:`valueset` — value-set analysis resolving indirect branch
  targets and address-taken code, the basis for the ``prove`` mode of
  :func:`repro.analysis.reachability.refine_removal_set`;
* :mod:`liveness` — backward register liveness at block boundaries;
* :mod:`hazards` — DL50x self-modifying-store classification consumed
  by :class:`repro.analysis.lint.ImageLinter`.
"""

from .framework import (
    DataflowError,
    DataflowProblem,
    Direction,
    FixpointError,
    MonotonicityError,
    Solution,
    solve,
)
from .hazards import HAZARD_RULES, StoreHazard, classify_store
from .lattice import ValueSet
from .liveness import LivenessResult, block_liveness, live_in_registers
from .regions import FunctionRegion, RegionMap
from .valueset import (
    FlowReport,
    IndirectSite,
    MachineState,
    analyze_image_flow,
    scan_address_taken,
)

__all__ = [
    "DataflowError",
    "DataflowProblem",
    "Direction",
    "FixpointError",
    "MonotonicityError",
    "Solution",
    "solve",
    "HAZARD_RULES",
    "StoreHazard",
    "classify_store",
    "ValueSet",
    "LivenessResult",
    "block_liveness",
    "live_in_registers",
    "FunctionRegion",
    "RegionMap",
    "FlowReport",
    "IndirectSite",
    "MachineState",
    "analyze_image_flow",
    "scan_address_taken",
]
