import dataclasses
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import layer_times  # noqa: E402

CHECKS = ["relations", "casimir", "homomorphism", "algebraic-form", "grading", "twist"]
LINES = ([("artifact", name) for name in layer_times.ARTIFACTS]
         + [("check", name) for name in CHECKS] + [("pass", "verify")])


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
    assert [tuple(line.split()[:2]) for line in lines[1:]] == LINES
    assert all(re.fullmatch(r"\d+\.\d", line.split()[2]) for line in lines[1:])


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
