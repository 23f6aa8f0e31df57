"""Self-tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about half a minute; the last test runs the whole small suite twice).
"""

from __future__ import annotations

import statistics

import pytest

import repro.compiler
from repro.experiments.pipeline import run_suite
from repro.vm.machine import Machine
from repro.workloads.suite import benchmark_names

from layers import LayerTracer
from reference import input_key, load_reference
from workloads import (
    check_pass,
    draw_long_inputs,
    fuzz_programs,
    run_pass,
    setup,
)

REPEATED_COUNTS = ("vm.executions", "vm.il", "inliner.expansions")


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def _draw_keys(seed, reference):
    return {
        benchmark.name: [input_key(spec) for spec in specs]
        for benchmark, specs in draw_long_inputs(seed, reference)
    }


def _few_items(reference):
    """Two quick suite programs and three fuzz programs."""
    suite = [item for item in setup("suite-small", 0, reference) if item.name in ("tee", "wc")]
    return suite + setup("inline-fuzz", 0, reference)[:3]


def test_same_seed_gives_same_inputs(reference):
    assert _draw_keys(7, reference) == _draw_keys(7, reference)
    assert fuzz_programs(7) == fuzz_programs(7)


def test_same_seed_repeats_quality_and_counts(reference):
    items = _few_items(reference)
    runs = []
    for _ in range(2):
        with LayerTracer() as tracer:
            result = run_pass(items, tracer)
        check_pass(items, result)
        assert not result.failures
        runs.append((result.quality(), {name: tracer.counts[name] for name in REPEATED_COUNTS}))
    assert runs[0] == runs[1]
    assert all(value > 0 for value in runs[0][1].values())


def test_different_seed_changes_draw_and_programs(reference):
    assert _draw_keys(0, reference) != _draw_keys(1, reference)
    assert fuzz_programs(0) != fuzz_programs(1)


def test_draw_covers_every_program(reference):
    draw = _draw_keys(3, reference)
    assert sorted(draw) == sorted(benchmark_names())
    assert all(len(keys) == 1 for keys in draw.values())


def test_planted_wrong_digest_is_reported(reference):
    items = [item for item in setup("suite-small", 0, reference) if item.name in ("tee", "wc")]
    wc = next(item for item in items if item.name == "wc")
    wc.expected[1] = "0" * 20
    result = run_pass(items)
    check_pass(items, result)
    assert list(result.failures) == ["wc"]
    assert "output digest" in result.failures["wc"]
    assert result.failed_frac == 0.5


def test_fuzz_program_outside_reference_uses_unoptimised_build(reference):
    items = setup("inline-fuzz", 10_000, reference)[:2]
    result = run_pass(items)
    check_pass(items, result)
    assert not result.failures
    assert result.checks == {"un-optimised build": 2}


def test_tracer_restores_every_entry_point():
    parse, run = repro.compiler.parse_translation_unit, Machine.run
    with LayerTracer():
        assert repro.compiler.parse_translation_unit is not parse
        assert Machine.run is not run
    assert repro.compiler.parse_translation_unit is parse
    assert Machine.run is run


def test_suite_small_quality_matches_table4(reference):
    items = setup("suite-small", 0, reference)
    result = run_pass(items)
    check_pass(items, result)
    assert not result.failures
    table = run_suite(scale="small")
    quality = result.quality()
    assert quality["code_growth_pct"] == 100 * statistics.fmean(r.code_increase for r in table)
    assert quality["calls_removed_pct"] == 100 * statistics.fmean(r.call_decrease for r in table)
