import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

METRICS = {m["name"]: m["unit"]
           for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]}


def fake_runner(calls, values, fingerprints=None):
    """A runner that records (checkout, workload, seed, seconds) and returns
    the next canned metrics of that checkout, as bench/run.py prints them;
    a metric without canned values reads 1."""
    def run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        i = sum(c[0] == checkout for c in calls) - 1
        meta = {"fingerprint": (fingerprints or {}).get((checkout, i), "f00d")}
        canned = values[checkout]
        result = {"metrics": {name: {"value": canned[name][i] if name in canned else 1,
                                     "unit": unit} for name, unit in METRICS.items()}}
        return meta, result
    return run


def test_pairs_alternate_and_one_line_per_metric(capsys):
    values = {"old": {"ops_per_s": [70, 68, 66, 72], "setup_s": [0.5, 0.5, 0.5, 0.5]},
              "new": {"ops_per_s": [80, 67, 75, 79], "setup_s": [0.4, 0.6, 0.5, 0.4]}}
    calls = []
    argv = ["old", "new", "--workload", "sweep", "--seed", "3", "--seconds", "2",
            "--pairs", "4"]
    assert bench_pairs.main(argv, fake_runner(calls, values)) == 0
    # one process at a time, the parent first in odd pairs
    assert [c[0] for c in calls] == ["old", "new", "new", "old", "old", "new", "new", "old"]
    assert {c[1:] for c in calls} == {("sweep", 3, 2.0)}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sweep seed=3: 4 pairs of 2 s runs, parent -> change"
    # each pair's values as it ends, then the summary
    assert lines[1].startswith("  pair 1: setup_s 0.5 -> 0.4, ops_per_s 70 -> 80, ")
    assert lines[4].startswith("  pair 4: setup_s 0.5 -> 0.4, ops_per_s 72 -> 79, ")
    assert lines[5] == "median [quartiles] of the parent -> median of the change"
    by_name = {line.split()[0]: line for line in lines[6:-1]}
    assert list(by_name) == list(METRICS)
    assert by_name["ops_per_s"] == ("  ops_per_s    69 [66.5, 71.5] -> 77 1/s "
                                    "(higher is better): change better in 3 of 4; "
                                    "change/parent - 1 +11.7% [+1.3%, +14.1%], bound 25%; "
                                    "gain rule not met")
    assert by_name["setup_s"].endswith("0.5 [0.5, 0.5] -> 0.45 s (lower is better): "
                                       "change better in 2 of 4; change/parent - 1 "
                                       "-10.0% [-20.0%, +15.0%], bound 25%; "
                                       "gain rule not met")
    assert by_name["peak_rss_mb"].endswith("+0.0% [+0.0%, +0.0%], bound 10%; gain rule not met")
    assert lines[-1] == "  fingerprints match in 4 of 4 pairs"


def test_summary_names_differing_fingerprints():
    values = {"a": {"ops_per_s": [1, 1], "setup_s": [1, 1]},
              "b": {"ops_per_s": [2, 2], "setup_s": [1, 1]}}
    runs = list(bench_pairs.run_pairs("a", "b", "structure", 1, 1, 2, fake_runner(
        [], values, {("b", 1): "beef"})))
    metrics = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    assert bench_pairs.summary(runs, metrics) == [
        "  ops_per_s    1 [1, 1] -> 2 1/s (higher is better): change better in 2 of 2; "
        "change/parent - 1 +100.0% [+100.0%, +100.0%], bound 25%; gain rule met",
        "  fingerprints match in 1 of 2 pairs: they differ"]


def test_one_checkout_as_both_sides_prints_the_noise_floor():
    # an A/A set: both sides of a pair are runs of one checkout, so the
    # relative differences are the run-to-run noise
    values = {"same": {"ops_per_s": [100, 90, 110, 95, 105, 100, 100, 100]}}
    runs = list(bench_pairs.run_pairs("same", "same", "sweep", 1, 1, 4,
                                      fake_runner([], values)))
    metrics = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    # pairs (100, 90), (95, 110), (105, 100), (100, 100): parent first in odd pairs
    assert bench_pairs.summary(runs, metrics)[0] == (
        "  ops_per_s    100 [96.25, 103.75] -> 100 1/s (higher is better): change better "
        "in 1 of 4; change/parent - 1 -2.4% [-8.7%, +11.8%], bound 25%; gain rule not met")


def gain_verdict(before, after, better="higher"):
    values = {"old": {"ops_per_s": before}, "new": {"ops_per_s": after}}
    runs = list(bench_pairs.run_pairs("old", "new", "sweep", 1, 1, len(before),
                                      fake_runner([], values)))
    metrics = [{"name": "ops_per_s", "unit": "1/s", "better": better, "bound": 0.25}]
    return bench_pairs.summary(runs, metrics)[0].rsplit("; ", 1)[1]


def test_gain_rule_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_iqr():
    parent = [100, 90, 110, 95, 105, 100, 92, 108, 97, 103]  # median 100, IQR 11.5
    # better in 9 of 10 pairs, but the median moves 1.5, inside the IQR
    assert gain_verdict(parent, [x + 3 for x in parent[:9]] + [99]) == "gain rule not met"
    assert gain_verdict(parent, [x + 20 for x in parent[:9]] + [99]) == "gain rule met"
    # a tie counts for neither side: 8 wins and 2 ties of 10 fall short
    assert gain_verdict(parent, [x + 20 for x in parent[:8]] + parent[8:]) \
        == "gain rule not met"
    # lower is better: the same margins, mirrored
    assert gain_verdict(parent, [x - 20 for x in parent[:9]] + [104], "lower") == "gain rule met"
    assert gain_verdict(parent, [x - 3 for x in parent[:9]] + [104], "lower") \
        == "gain rule not met"
