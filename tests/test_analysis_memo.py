"""The analysis memo and the register-liveness client.

CFG recovery, the value-set report and register liveness share one
memo keyed by ``(analysis, image name, image digest)``.  The
differential tests pit every memoized result against a fresh
computation on the real guests; the liveness tests pin what the
redirect check relies on.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import cfg as cfg_module
from repro.analysis.cfg import build_cfg, cached_cfg, image_digest
from repro.analysis.dataflow import (
    analyze_image_flow,
    block_liveness,
    live_in_registers,
)
from repro.analysis.dataflow.liveness import ALL_REGS
from repro.apps import (
    libc_image,
    lighttpd_image,
    nginx_image,
    redis_image,
    spec_image,
)

from .helpers import build_minic

#: registers the redirect check treats as meaningful at a trap site
PRESERVED = {7, 8, 9, 10, 14, 15}

HANDLERS = """
func reads_arg(x) { return x + 1; }
func ignores_args() { return 7; }
func main() { return reads_arg(2) + ignores_args(); }
"""

GUESTS = {
    "libc": libc_image,
    "miniredis": redis_image,
    "minilight": lighttpd_image,
    "mininginx": nginx_image,
    "mcf": lambda: spec_image("605.mcf_s"),
}


class TestLiveness:
    def test_handler_reading_an_argument_has_it_live_in(self):
        image = build_minic(HANDLERS, "live_reads", with_libc=False)
        live = live_in_registers(image, image.symbol_address("reads_arg"))
        assert live - PRESERVED == {1}

    def test_handler_ignoring_its_arguments_reads_none(self):
        image = build_minic(HANDLERS, "live_ignores", with_libc=False)
        live = live_in_registers(image, image.symbol_address("ignores_args"))
        assert live - PRESERVED == set()

    def test_unknown_block_is_conservatively_all_live(self):
        image = build_minic(HANDLERS, "live_unknown", with_libc=False)
        assert live_in_registers(image, 0) == ALL_REGS


class TestMemoKey:
    def test_report_carries_its_own_image_name(self):
        source = "func main() { return 3; }"
        alpha = build_minic(source, "alpha", with_libc=False)
        beta = build_minic(source, "beta", with_libc=False)
        assert image_digest(alpha) == image_digest(beta)
        assert analyze_image_flow(alpha).image_name == "alpha"
        assert analyze_image_flow(beta).image_name == "beta"
        assert cached_cfg(beta).image_name == "beta"
        assert block_liveness(beta).image_name == "beta"

    def test_rewritten_image_misses(self):
        image = build_minic(HANDLERS, "memo_rewrite", with_libc=False)
        before = cached_cfg(image)
        assert cached_cfg(image) is before
        index, text = next(
            (i, seg) for i, seg in enumerate(image.segments) if seg.name == "text"
        )
        offset = image.symbol_address("ignores_args") - text.vaddr
        image.segments[index] = replace(
            text, data=text.data[:offset] + b"\xcc" + text.data[offset + 1:]
        )
        assert cached_cfg(image) is not before

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(cfg_module, "_MEMO", {})
        monkeypatch.setattr(cfg_module, "_MEMO_LIMIT", 2)
        images = [
            build_minic(f"func main() {{ return {n}; }}", f"bound{n}",
                        with_libc=False)
            for n in range(4)
        ]
        for image in images:
            cached_cfg(image)
        assert [key[1] for key in cfg_module._MEMO] == ["bound2", "bound3"]


@pytest.mark.parametrize("guest", sorted(GUESTS))
def test_memoized_results_equal_a_fresh_computation(guest):
    image = GUESTS[guest]()
    memo_cfg = cached_cfg(image)
    memo_flow = analyze_image_flow(image)
    memo_live = block_liveness(image)
    assert analyze_image_flow(image) is memo_flow  # a hit, not a rerun

    cfg_module._MEMO.clear()
    fresh_flow = analyze_image_flow(image)
    fresh_live = block_liveness(image)
    assert fresh_flow is not memo_flow and fresh_live is not memo_live
    assert memo_cfg == build_cfg(image)
    assert memo_flow == fresh_flow
    assert memo_live == fresh_live
