import dataclasses
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import layer_times  # noqa: E402

CHECKS = ["relations", "casimir", "homomorphism", "algebraic-form", "grading", "twist"]
LINES = ([("artifact", name) for name in layer_times.ARTIFACTS]
         + [("check", name) for name in CHECKS] + [("pass", "verify")])
SETUP_LINES = [("setup", "build_ops"), ("setup", "make_instance")]
HOST_LINE = ("host", "reference-chunk")


def tiny_workload(monkeypatch):
    tiny = dataclasses.replace(layer_times.bench.WORKLOADS["structure"], n_max=2, draws=1)
    monkeypatch.setitem(layer_times.bench.WORKLOADS, "tiny", tiny)
    return tiny


def test_one_pass_times_every_artifact_and_every_selected_check(monkeypatch):
    ops, _ = layer_times.bench.build_ops(tiny_workload(monkeypatch), 4)
    times = layer_times.one_pass(ops)
    assert list(times) == LINES  # twist runs on the extra q-Racah point only
    assert all(t >= 0 for t in times.values())
    medians = layer_times.layer_times(ops, repeats=3)
    assert list(medians) == LINES


def test_main_prints_a_header_then_one_line_per_layer(monkeypatch, capsys):
    tiny_workload(monkeypatch)
    assert layer_times.main(["tiny:4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"tiny seed=4: \d+ ops, median CPU ms per pass of 5", lines[0])
    layers, setup = lines[1:len(LINES) + 1], lines[len(LINES) + 1:]
    assert [tuple(line.split()[:2]) for line in layers] == LINES
    assert all(re.fullmatch(r"\d+\.\d", line.split()[2]) for line in layers)
    assert [tuple(line.split()[:2]) for line in setup] == SETUP_LINES + [HOST_LINE]
    assert all(re.fullmatch(r"\d+\.\d{3}", line.split()[2]) for line in setup)


def test_host_line_is_the_median_of_the_reference_chunks(monkeypatch):
    # chunks of 1..31 ms in shuffled order: the median is 16 ms, after
    # exactly HOST_CHUNKS calls
    chunks = [ms / 1000 for ms in range(1, layer_times.HOST_CHUNKS + 1)]
    random.Random(5).shuffle(chunks)
    calls = iter(chunks)
    monkeypatch.setattr(layer_times.bench, "reference_chunk", lambda: next(calls))
    assert layer_times.host_reference() == 16.0
    assert next(calls, None) is None


def test_setup_lines_time_whole_builds_and_each_make_instance_call(monkeypatch):
    # with a clock that ticks once per reading, a timed build is 1 and each
    # make_instance call inside a build adds 1, rejected draws included; the
    # wrapper is gone afterwards
    tiny = tiny_workload(monkeypatch)
    ops, rejected = layer_times.bench.build_ops(tiny, 4)
    original = layer_times.bench.families.make_instance
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(layer_times, "process_time", lambda: next(ticks))
    times = layer_times.setup_times(tiny, 4, repeats=3)
    assert times == {("setup", "build_ops"): 1000.0,
                     ("setup", "make_instance"): 1000.0 * (len(ops) + rejected)}
    assert layer_times.bench.families.make_instance is original


def test_a_check_and_an_artifact_of_one_name_are_timed_apart(monkeypatch):
    # the sweep workload runs every check, contiguity among them; with a clock
    # that ticks once per reading, each timed interval is 1
    tiny = dataclasses.replace(layer_times.bench.WORKLOADS["sweep"], n_max=2, draws=1)
    monkeypatch.setitem(layer_times.bench.WORKLOADS, "tiny", tiny)
    ops, _ = layer_times.bench.build_ops(tiny, 4)
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(layer_times, "process_time", lambda: next(ticks))
    times = layer_times.one_pass(ops)
    assert times["artifact", "contiguity"] == times["check", "contiguity"] == len(ops)
    assert times["pass", "verify"] == 1


def test_a_draw_spec_times_one_random_instance_like_a_workload(capsys):
    # KIND@NMAX[:SEED] is cgverify.random_instance(KIND, Random(SEED), NMAX),
    # seed 0 by default, with every check; its lines are a workload's, with
    # the largest stored block integer in bits before the setup lines
    draw, seed = layer_times.parse("hahn@3")
    assert (draw, seed) == (layer_times.Draw("hahn", 3), 0)
    assert layer_times.parse("q-racah@48:7") == (layer_times.Draw("q-racah", 48), 7)
    assert layer_times.parse("sweep") == (layer_times.bench.WORKLOADS["sweep"], 1)
    (op,), rejected = layer_times.build(draw, seed)
    assert (op.inst, op.checks, rejected) == (
        layer_times.cgverify.random_instance("hahn", random.Random(0), 3), None, 0)
    bits = max(x.bit_length() for N in range(4)
               for a, c in layer_times.cgverify.cg_block(op.inst, N).columns for x in (*a, c))
    assert layer_times.block_bits([op]) == bits

    assert layer_times.main(["hahn@3", "--repeats", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "hahn@3 seed=0: 1 ops, median CPU ms per pass of 2"
    checks = ["contiguity", "relations", "casimir", "homomorphism", "algebraic-form",
              "grading", "raising", "lowering", "cg-oracle", "orthogonality"]
    want = ([("artifact", name) for name in layer_times.ARTIFACTS]
            + [("check", name) for name in checks] + [("pass", "verify")])
    layers = lines[1:len(want) + 1]
    assert [tuple(line.split()[:2]) for line in layers] == want
    assert lines[len(want) + 1].split() == ["blocks", "max-bits", str(bits)]
    assert [tuple(line.split()[:2]) for line in lines[len(want) + 2:]] == \
        SETUP_LINES + [HOST_LINE]


def test_a_draws_setup_lines_time_its_make_instance_calls(monkeypatch):
    # random_instance calls cgverify.make_instance: with a clock that ticks
    # once per reading each build is 1, and so is its one accepted draw
    draw = layer_times.Draw("q-hahn", 2)
    original = layer_times.cgverify.make_instance
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(layer_times, "process_time", lambda: next(ticks))
    times = layer_times.setup_times(draw, 0, repeats=3)
    assert layer_times.cgverify.make_instance is original
    tries = []
    monkeypatch.setattr(layer_times.cgverify, "make_instance",
                        lambda *a, **k: tries.append(a) or original(*a, **k))
    layer_times.build(draw, 0)
    assert times == {("setup", "build_ops"): 1000.0,
                     ("setup", "make_instance"): 1000.0 * len(tries)}
