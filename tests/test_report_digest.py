import dataclasses
import hashlib
import json
import re
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import report_digest  # noqa: E402

from askeycg.cli import run_verify_suite  # noqa: E402
from askeycg.families import make_instance  # noqa: E402

# the combined digest lines that tools/report_digest.py prints for the
# benchmark's sweep and structure ops at seed 1; a change that alters
# reports on purpose rewrites this file and says so
PINNED = Path(__file__).resolve().parent / "golden" / "report_digests.txt"


def test_digest_is_the_sha256_of_the_sorted_report_json():
    kraw = make_instance("krawtchouk", n_max=2, p=F(1, 3))
    want = hashlib.sha256(json.dumps(run_verify_suite(kraw).to_dict(),
                                     sort_keys=True).encode()).hexdigest()
    assert report_digest.report_digest(kraw) == want
    assert report_digest.report_digest(kraw, ("relations",)) != want


def test_digests_tell_hand_made_instances_apart():
    insts = [make_instance("krawtchouk", n_max=2, p=F(1, 3)),
             make_instance("krawtchouk", n_max=2, p=F(1, 4)),
             make_instance("dual-hahn", n_max=2, lambda1=F(2), lambda2=F(3), alpha=F(1)),
             make_instance("q-hahn", n_max=2, q=F(1, 4), alpha=F(1, 3), beta=F(2, 5))]
    digests = [report_digest.report_digest(inst) for inst in insts]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
    assert len(set(digests)) == len(digests)
    assert report_digest.combined(digests) != report_digest.combined(digests[::-1])


def test_main_prints_one_line_per_op_then_the_combined_digest(monkeypatch, capsys):
    tiny = dataclasses.replace(report_digest.bench.WORKLOADS["structure"], n_max=2, draws=1)
    monkeypatch.setitem(report_digest.bench.WORKLOADS, "tiny", tiny)
    assert report_digest.main(["tiny:4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ops, _ = report_digest.bench.build_ops(tiny, 4)
    assert len(lines) == len(ops) + 1
    digests = [line.split()[-1] for line in lines[:-1]]
    assert lines[0] == f"tiny seed=4 op=0 {ops[0].family} {digests[0]}"
    assert lines[-1] == f"tiny seed=4 combined {report_digest.combined(digests)}"


def test_benchmark_reports_match_the_pinned_digests():
    pinned = PINNED.read_text().splitlines()
    assert [line.split()[:2] for line in pinned] == [["sweep", "seed=1"], ["structure", "seed=1"]]
    for line in pinned:
        name, seed = line.split()[:2]
        ops, _ = report_digest.bench.build_ops(report_digest.bench.WORKLOADS[name],
                                               int(seed.removeprefix("seed=")))
        digests = [report_digest.report_digest(op.inst, op.checks) for op in ops]
        assert line == f"{name} {seed} combined {report_digest.combined(digests)}"
