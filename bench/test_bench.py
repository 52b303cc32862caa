"""Tests of the benchmark itself: metric names, output checks, tracing.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402

from askeycg import cgverify, cli, families  # noqa: E402
from askeycg.report import CheckResult  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def small(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], n_max=2, draws=1)


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_smoke_untraced(name):
    result, meta = bench.run_untraced(small(name), seed=3, seconds=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == meta["ops"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert 0 <= meta["fail_share"]["value"] <= 1
    assert len(meta["instances"]) == meta["ops"]


def test_counts_do_not_depend_on_repeats():
    once, meta_once = bench.run_untraced(small("sweep"), seed=3, seconds=0)
    more, meta_more = bench.run_untraced(small("sweep"), seed=3, seconds=0.5)
    assert meta_more["ops_run"] > meta_once["ops_run"] == meta_once["ops"]
    assert (more["attempted"], more["failed"]) == (once["attempted"], once["failed"])


def test_times_are_rescaled_to_nominal_host_speed(monkeypatch):
    monkeypatch.setattr(bench, "reference_chunk", lambda: 2 * bench.REFERENCE_NOMINAL_S)
    result, meta = bench.run_untraced(small("sweep"), seed=3, seconds=0)
    wall, metrics = meta["host"]["wall"], result["metrics"]
    assert meta["host"]["host_factor"] == 0.5
    assert metrics["setup_s"]["value"] == pytest.approx(wall["setup_s"] / 2)
    assert metrics["op_p50_s"]["value"] == pytest.approx(wall["op_p50_s"] / 2)
    assert metrics["ops_per_s"]["value"] == pytest.approx(wall["ops_per_s"] * 2)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    original = cli.run_verify_suite
    result, meta = bench.run_traced(small(name), seed=3, seconds=0, out_dir=tmp_path)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.run_verify_suite.s"] > 0
    assert metrics["families.make_instance.calls"] >= meta["ops"]
    assert metrics["cgverify.cg_block.calls"] > 0  # blocks are built eagerly
    assert (tmp_path / Path(meta["spans_file"]).name).exists()
    assert cli.run_verify_suite is original  # wrappers removed


def test_every_named_check_runs_in_a_gated_workload():
    ran = set()
    for name in (w["name"] for w in SPEC["workloads"]):
        ops, _ = bench.build_ops(small(name), seed=3)
        for op in ops:
            ran |= bench.expected_checks(op)
    assert ran == set(bench.CHECKS)


def test_inputs_follow_the_seed():
    docs = lambda seed: [op.inst.to_doc() for op in bench.build_ops(small("sweep"), seed)[0]]
    assert docs(5) == docs(5)
    assert docs(5) != docs(6)


def doctored_suite(change):
    """run_verify_suite with one report entry replaced by change(entry)."""
    def suite(inst, checks):
        rep = cli.run_verify_suite(inst, checks)
        rep.checks = [change(c) if c.name == "contiguity" else c for c in rep.checks]
        return rep
    return suite


def test_skipped_expected_check_is_a_failure():
    skip = doctored_suite(lambda c: CheckResult.skip(c.name, "dropped"))
    result, meta = bench.run_untraced(small("structure"), seed=3, seconds=0, suite=skip)
    assert result["failed"] == 0  # contiguity is not selected on structure
    result, meta = bench.run_untraced(small("deep"), seed=3, seconds=0, suite=skip)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert meta["fail_share"]["value"] == 1
    assert "differ from expected" in meta["failures"][0]["problems"][0]


def test_failed_check_counts_toward_fail_share():
    fail = doctored_suite(lambda c: CheckResult.fail(c.name, "", {"N": 0}, 1, 2))
    result, meta = bench.run_untraced(small("deep"), seed=3, seconds=0, suite=fail)
    assert result["correct"]  # a failing verdict with a witness is a complete report
    assert result["failed"] == result["attempted"]
    assert meta["failures"][0]["failed_checks"] == ["contiguity"]


def test_failed_check_without_witness_is_incorrect():
    bare = doctored_suite(lambda c: CheckResult(c.name, False))
    result, meta = bench.run_untraced(small("deep"), seed=3, seconds=0, suite=bare)
    assert not result["correct"]
    assert "without a witness" in meta["failures"][0]["problems"][0]


def test_tail_percentile_rule():
    assert bench.tail_latency([float(i) for i in range(10)]) == (9.0, 100.0)
    value, pct = bench.tail_latency([float(i) for i in range(38)])
    assert value == 27.0 and pct == pytest.approx(100 * 28 / 38)


def test_tracer_patches_every_namespace():
    original = families.poly_value
    tracer = Tracer()
    tracer.wrap_function("families.poly_value", "askeycg.families", "poly_value",
                         count_args=True)
    try:
        assert cgverify.poly_value is families.poly_value is not original
        inst = families.make_instance("krawtchouk", n_max=2, p="1/3")
        cgverify.cg_block(inst, 1)
        cgverify.cg_block(inst, 1)
    finally:
        tracer.restore()
    assert cgverify.poly_value is families.poly_value is original
    agg = tracer.aggregate()["families.poly_value"]
    assert agg["calls"] == 8
    assert tracer.distinct_ratio("families.poly_value") == 0.5
