"""Static basic-block discovery over SELF images (the Angr stand-in).

Figure 9's "total number of basic blocks" row comes from static
analysis, not traces.  This module recovers a conservative CFG with the
classic recursive-descent recipe:

1. seed the worklist with the entry point, every function symbol, and
   every PLT stub;
2. linearly decode from each seed, collecting **leaders**: branch
   targets, fall-through successors of conditional branches, and
   call-return sites;
3. iterate to a fixpoint, then cut blocks at leaders and terminators.

Indirect jumps/calls (``jmpr``/``callr``) end a block without adding
targets — the sound-but-incomplete behaviour real binary CFG recovery
has, which is why symbol seeds matter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from ..binfmt.self_format import SelfImage
from ..isa.disassembler import DecodedInstruction, disassemble_one
from ..isa.encoding import DecodeError


@dataclass(frozen=True, order=True)
class BasicBlock:
    """A static basic block: [start, start+size) within the image."""

    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


@dataclass
class ControlFlowGraph:
    """Recovered blocks plus edges between block start addresses."""

    image_name: str
    blocks: list[BasicBlock] = field(default_factory=list)
    edges: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_at(self, address: int) -> BasicBlock | None:
        for block in self.blocks:
            if block.start <= address < block.end:
                return block
        return None

    def block_starts(self) -> set[int]:
        return {b.start for b in self.blocks}


class CfgBuilder:
    """Recovers the static CFG of one SELF image."""

    def __init__(self, image: SelfImage):
        self.image = image
        self._regions: list[tuple[int, int, bytes]] = []
        for seg in image.segments:
            if seg.name in ("text", "plt") and seg.data:
                self._regions.append((seg.vaddr, seg.vaddr + len(seg.data), seg.data))

    # ------------------------------------------------------------------

    def build(self) -> ControlFlowGraph:
        seeds = self._seeds()
        leaders, terminator_ends = self._discover(seeds)
        blocks, edges = self._cut_blocks(leaders, terminator_ends)
        return ControlFlowGraph(self.image.name, blocks, edges)

    # ------------------------------------------------------------------

    def _seeds(self) -> set[int]:
        seeds: set[int] = set()
        if self.image.entry:
            seeds.add(self.image.entry)
        for sym in self.image.symbols.values():
            if sym.is_function and self._region_of(sym.vaddr) is not None:
                seeds.add(sym.vaddr)
        for stub in self.image.plt_entries.values():
            seeds.add(stub)
        return seeds

    def _region_of(self, address: int) -> tuple[int, int, bytes] | None:
        for start, end, data in self._regions:
            if start <= address < end:
                return start, end, data
        return None

    def _decode_at(self, address: int) -> DecodedInstruction | None:
        region = self._region_of(address)
        if region is None:
            return None
        start, end, data = region
        try:
            decoded = disassemble_one(data, address, base=start)
        except DecodeError:
            return None
        if decoded.end > end:
            return None
        return decoded

    def _discover(self, seeds: set[int]) -> tuple[set[int], set[int]]:
        """Walk from seeds, returning (leaders, addresses-after-terminators)."""
        leaders = set(seeds)
        terminator_ends: set[int] = set()
        visited: set[int] = set()
        worklist = list(seeds)
        while worklist:
            address = worklist.pop()
            while address not in visited:
                visited.add(address)
                decoded = self._decode_at(address)
                if decoded is None:
                    break
                mnemonic = decoded.mnemonic
                target = decoded.branch_target()
                if target is not None and self._region_of(target) is not None:
                    if target not in leaders:
                        leaders.add(target)
                        worklist.append(target)
                    elif target not in visited:
                        worklist.append(target)
                if decoded.is_terminator():
                    terminator_ends.add(decoded.end)
                    # conditional branches and calls fall through
                    if decoded.is_conditional() or mnemonic in ("call", "callr"):
                        if decoded.end not in leaders:
                            leaders.add(decoded.end)
                            worklist.append(decoded.end)
                        address = decoded.end
                        continue
                    break
                address = decoded.end
        return leaders, terminator_ends

    def _cut_blocks(
        self, leaders: set[int], terminator_ends: set[int]
    ) -> tuple[list[BasicBlock], dict[int, tuple[int, ...]]]:
        blocks: list[BasicBlock] = []
        edges: dict[int, tuple[int, ...]] = {}
        for leader in sorted(leaders):
            if self._region_of(leader) is None:
                continue
            address = leader
            successors: list[int] = []
            while True:
                decoded = self._decode_at(address)
                if decoded is None:
                    break
                end = decoded.end
                if decoded.is_terminator():
                    target = decoded.branch_target()
                    if target is not None:
                        successors.append(target)
                    if decoded.is_conditional() or decoded.mnemonic in (
                        "call", "callr",
                    ):
                        successors.append(end)
                    address = end
                    break
                if end in leaders:
                    successors.append(end)
                    address = end
                    break
                address = end
            if address > leader:
                blocks.append(BasicBlock(leader, address - leader))
                edges[leader] = tuple(successors)
        return blocks, edges


def build_cfg(image: SelfImage) -> ControlFlowGraph:
    """Recover the static CFG of ``image``."""
    return CfgBuilder(image).build()


def image_digest(image: SelfImage) -> str:
    """Content digest over everything static analysis reads.

    Covers every segment's bytes, the entry point, symbols, PLT stubs,
    and dynamic relocations — two images with equal digests produce
    identical CFGs *and* identical dataflow results, which is what
    makes :func:`memoized` safe across rewrites: a patched segment
    changes the digest.
    """
    h = hashlib.sha256()
    h.update(image.entry.to_bytes(8, "little"))
    h.update(image.kind.value.encode())
    for seg in sorted(image.segments, key=lambda s: s.vaddr):
        h.update(seg.name.encode())
        h.update(seg.vaddr.to_bytes(8, "little"))
        h.update(seg.perms.encode())
        h.update(seg.data)
    for name, sym in sorted(image.symbols.items()):
        h.update(name.encode())
        h.update(sym.vaddr.to_bytes(8, "little"))
        h.update(bytes([sym.is_function, sym.is_global]))
    for name, stub in sorted(image.plt_entries.items()):
        h.update(name.encode())
        h.update(stub.to_bytes(8, "little"))
    for reloc in image.dynamic_relocs:
        h.update(reloc.vaddr.to_bytes(8, "little"))
        h.update(reloc.type.value.encode())
        h.update(reloc.symbol.encode())
        h.update(reloc.addend.to_bytes(8, "little", signed=True))
    return h.hexdigest()


#: (analysis, image name, image digest) → result, shared by every
#: caller in the process; the oldest entry goes first when it is full
_MEMO: dict[tuple[str, str, str], Any] = {}
_MEMO_LIMIT = 128

T = TypeVar("T")


def memoized(
    analysis: str, image: SelfImage, compute: Callable[[SelfImage], T]
) -> T:
    """``compute(image)``, run once per image name and content.

    The one memo behind CFG recovery, the DynaFlow value-set report and
    register liveness.  The key is :func:`image_digest`, so a rewritten
    image never hits a stale entry, plus the image's name, which the
    digest leaves out but every result records.  Results are shared:
    callers must not mutate them.
    """
    key = (analysis, image.name, image_digest(image))
    if key in _MEMO:
        return _MEMO[key]
    result = compute(image)
    if len(_MEMO) >= _MEMO_LIMIT:
        _MEMO.pop(next(iter(_MEMO)))
    _MEMO[key] = result
    return result


def cached_cfg(image: SelfImage) -> ControlFlowGraph:
    """:func:`build_cfg` through the analysis memo."""
    return memoized("cfg", image, build_cfg)


def total_basic_blocks(image: SelfImage) -> int:
    """Figure 9's "total BB" metric for one binary."""
    return cached_cfg(image).block_count
