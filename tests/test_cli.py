import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import askeycg
from askeycg import algebras, cgverify, cli, coproduct, families
from askeycg.algebras import (AlgebraKind, AlgebraTag, Generators, ModuleSpec,
                              build_generators, casimir, check_relations)
from askeycg.cgverify import CGBlock, Run, WeightData, cg_block, orthogonality_weights
from askeycg.cli import CHECK_NAMES, main, run_verify_suite, table_doc
from askeycg.coproduct import check_twist_qracah_specialization, krawtchouk_coassoc
from askeycg.exactmath import InvalidParameterError, parse_scalar
from askeycg.families import (FamilyKind, limit_hahn_to_krawtchouk, limit_racah_to_dual_hahn,
                              make_instance, poly_value)
from askeycg.linalg import RatMat
from askeycg.report import CheckResult, first_failure

from test_algebras import with_entry
from test_families import run_with, sample_instance
from test_golden_reports import report as golden_report


def test_verify_exit_zero_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--family", "dual-hahn", "--lambda1", "2",
                 "--lambda2", "3", "--alpha", "1", "--nmax", "4",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == CHECK_NAMES
    assert doc["params"]["beta"] == "2"


def test_verify_invalid_parameters_exit_two(capsys):
    code = main(["verify", "--family", "hahn", "--alpha", "1", "--beta", "1"])
    assert code == 2
    assert "genericity" in capsys.readouterr().err


def test_verify_missing_family_exit_two(capsys):
    assert main(["verify", "--alpha", "1"]) == 2


def test_verify_unknown_check_exit_two(capsys):
    code = main(["verify", "--family", "krawtchouk", "--p", "1/3",
                 "--checks", "contiguity,nonsense"])
    assert code == 2
    assert "unknown check names" in capsys.readouterr().err


@pytest.mark.parametrize("value", [",", " , ,", ""])
def test_verify_checks_naming_no_check_exit_two(value, tmp_path, capsys):
    args = ["verify", "--family", "krawtchouk", "--p", "1/3", "--nmax", "2"]
    assert main(args + ["--checks", value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "names no check" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"checks = {value}\n")
    assert main(args + ["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "names no check" in err


def test_verify_bad_rational_exit_two(capsys):
    assert main(["verify", "--family", "krawtchouk", "--p", "0.5"]) == 2


@pytest.mark.parametrize("flag", ["--nmax", "--seed"])
def test_verify_non_integer_flag_exit_two(flag, capsys):
    code = main(["verify", "--family", "krawtchouk", "--p", "1/3", flag, "abc"])
    assert code == 2
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["nmax", "seed"])
def test_config_non_integer_value_exit_two(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"family = krawtchouk\np = 1/3\n{key} = abc\n")
    assert main(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command", ["verify", "table"])
def test_config_unknown_key_exit_two(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = hahn\nalpha = 1\nbeta = 1/2\nlamda1 = 3\nnmax = 2\n")
    assert main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "lamda1" in err


@pytest.mark.parametrize("command", ["verify", "table"])
def test_config_invalid_format_exit_two(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = krawtchouk\np = 1/3\nnmax = 2\nformat = xml\n")
    assert main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "xml" in err


@pytest.mark.parametrize("command", ["verify", "table"])
def test_config_repeated_key_exit_two(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = krawtchouk\np = 1/3\nnmax = 2\n# p again\np = 1/4\n")
    assert main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'p'" in err and "line 2" in err and "line 5" in err


def test_config_format_json_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = krawtchouk\np = 1/3\nnmax = 2\nformat = json\n")
    assert main(["table", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["suite"] == "table:krawtchouk"


def test_verify_q_zero_exit_two(capsys):
    code = main(["verify", "--family", "q-racah", "--q", "0", "--kappa1", "1/2",
                 "--kappa2", "1/3", "--alpha", "1/5", "--beta", "1/7", "--nmax", "3"])
    assert code == 2
    assert "q must avoid" in capsys.readouterr().err


def test_verify_every_selected_check_skipped_exit_two(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify", "--family", "hahn", "--alpha", "1", "--beta", "1/2",
                 "--nmax", "3", "--checks", "twist", "--output", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert not any(c["name"] == "twist" and not c["skipped"] for c in doc["checks"])
    assert "only defined for q-racah" in capsys.readouterr().err


def test_verify_subset_lists_all_checks(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--family", "krawtchouk", "--p", "1/3",
                 "--nmax", "3", "--checks", "contiguity,grading",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [c["name"] for c in doc["checks"]] == CHECK_NAMES
    ran = {c["name"] for c in doc["checks"] if not c["skipped"]}
    assert ran == {"contiguity", "grading"}
    skipped = {c["name"]: c["reason"] for c in doc["checks"] if c["skipped"]}
    assert skipped["raising"] == "not selected"


def test_verify_q_racah_full_suite():
    inst_args = ["verify", "--family", "q-racah", "--q", "1/4", "--kappa1", "1/2",
                 "--kappa2", "1/3", "--alpha", "1/5", "--beta", "1/7", "--nmax", "4"]
    assert main(inst_args) == 0


def test_verify_report_deterministic(tmp_path):
    args = ["verify", "--family", "krawtchouk", "--p", "1/3", "--nmax", "3",
            "--seed", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = krawtchouk\np = 1/3\nnmax = 3\n# comment\n")
    out = tmp_path / "r.json"
    code = main(["verify", "--config", str(cfg), "--p", "1/4",
                 "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["params"]["p"] == "1/4"


def test_missing_config_exit_three(capsys):
    assert main(["verify", "--config", "/nonexistent/x.cfg"]) == 3


def test_malformed_config_exit_three(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert main(["verify", "--config", str(cfg)]) == 3


def run_module(*args):
    """`python -m askeycg` with the given arguments, importing this checkout."""
    src = os.path.dirname(os.path.dirname(askeycg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "askeycg", *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_python_dash_m_runs_the_command_line():
    done = run_module("version")
    assert done.returncode == 0 and done.stdout.startswith("askeycg ")
    # the Racah point whose T_N is reducible from block 2: invalid parameters
    done = run_module("verify", "--family", "racah", "--alpha", "1/3", "--beta", "1",
                      "--lambda1", "3/2", "--lambda2", "5", "--nmax", "3",
                      "--checks", "orthogonality")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: invalid parameters: beta2 factor n - N + beta + 1 "
                           "vanishes at (n=0, N=2), so T_N is reducible\n")


@pytest.mark.parametrize("flags, message", [
    (["--family", "krawtchouk", "--p", "1/3", "--nmax", "0"], "n_max must be at least 1"),
    (["--family", "hahn", "--alpha", "1"], "hahn needs parameters: beta"),
    (["--family", "nope"], "unknown family 'nope' (options: hahn, krawtchouk, dual-hahn, "
                           "racah, q-hahn, q-racah)"),
])
def test_verify_rejects_the_instance_exit_two(flags, message, capsys):
    assert main(["verify", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: invalid parameters: {message}\n"


def test_degenerate_lowering_kernel_fails_the_oracle_entry_and_the_table(
        tmp_path, capsys, monkeypatch):
    # Delta(F) with its [0][1] entry on block 2 zeroed: the oracle's kernel
    # there cannot be scaled to 1, which verify reports as a failing
    # cg-oracle entry while every other check still runs; table stops at
    # the same block's weights with exit 1
    build_delta = cgverify.build_delta

    def cut(inst, data):
        delta = build_delta(inst, data)
        return Generators(delta.e, with_entry(delta.f, 2, (0, 1), F(0)), delta.hk)

    monkeypatch.setattr(cgverify, "build_delta", cut)
    flags = ["--family", "krawtchouk", "--p", "1/3", "--nmax", "3"]
    out = tmp_path / "r.json"
    assert main(["verify", *flags, "--output", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["cg-oracle"]["witness"] == {
        "where": {"error": "kernel vector on block 2 has first entry 0, so it cannot be "
                           "scaled to P_0(2, 2) = 1"}, "lhs": "", "rhs": ""}
    assert [name for name, c in checks.items() if not c["skipped"]] == [
        name for name in CHECK_NAMES if name not in ("three-term", "twist")]
    assert checks["contiguity"]["passed"] and checks["raising"]["passed"]
    capsys.readouterr()
    assert main(["table", *flags]) == 1
    assert capsys.readouterr() == (
        "", "error: block 2, step 1: T_N[0][1] vanishes, so no diagonal symmetrizes T_N\n")


def test_unwritable_output_exit_three(tmp_path):
    code = main(["verify", "--family", "krawtchouk", "--p", "1/3", "--nmax", "2",
                 "--output", str(tmp_path / "no" / "way.json")])
    assert code == 3


def test_table_text_contains_expected_row(capsys):
    code = main(["table", "--family", "krawtchouk", "--p", "1/3", "--nmax", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "N = 1" in out
    assert "-2" in out


def test_table_json_round_trips(tmp_path):
    out = tmp_path / "table.json"
    code = main(["table", "--family", "q-hahn", "--q", "1/4", "--alpha", "1/3",
                 "--beta", "2/5", "--nmax", "3", "--format", "json",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    inst = make_instance(FamilyKind.Q_HAHN, q=F(1, 4), alpha=F(1, 3),
                         beta=F(2, 5), n_max=3)
    run = Run(inst)
    for rec in doc["blocks"]:
        blk = CGBlock.from_matrix(int(rec["N"]), RatMat.from_rows(
            [[parse_scalar(x) for x in row] for row in rec["P"]]))
        weights = WeightData(int(rec["N"]), tuple(parse_scalar(x) for x in rec["omega"]),
                             tuple(parse_scalar(x) for x in rec["omega_prime"]))
        assert rec["normalization"] == "omega0=1"
        assert blk == cg_block(inst, blk.N)
        assert [list(row) for row in blk.P.a] == [
            [poly_value(inst, n, k, blk.N) for k in range(blk.N + 1)]
            for n in range(blk.N + 1)]
        assert weights == orthogonality_weights(run, blk.N)


def test_coassoc_exit_codes(capsys):
    assert main(["coassoc", "1/2", "1/3", "1/6", "2/5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constraint_holds"] and doc["operators_equal"]
    assert main(["coassoc", "1/2", "1/2", "1/2", "1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["constraint_holds"] and not doc["operators_equal"]
    assert main(["coassoc", "1/2", "1/3", "1/6", "1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["constraint_holds"] and not doc["operators_equal"]


def _coassoc_doc(p, q, p2, q2, holds, witness):
    return {"suite": "coassoc:krawtchouk", "version": "0.1.0",
            "params": {"p": p, "q": q, "p2": p2, "q2": q2, "n_max": "4"},
            "constraint_holds": holds, "operators_equal": holds, "witness": witness}


@pytest.mark.parametrize("doc", [
    _coassoc_doc("1/2", "1/3", "1/6", "2/5", True, None),
    _coassoc_doc("1/2", "1/2", "1/2", "1/2", False,
                 {"name": "recoupling-F", "block": 1, "row": 0, "col": 0,
                  "lhs": "-1/2", "rhs": "-1/4"}),
    _coassoc_doc("1/2", "1/3", "1/6", "1/2", False,
                 {"name": "recoupling-F", "block": 1, "row": 0, "col": 0,
                  "lhs": "-1/2", "rhs": "-5/12"}),
])
def test_coassoc_document(capsys, doc):
    # the whole stdout document, byte for byte, of test_coassoc_exit_codes' quadruples
    params = doc["params"]
    assert main(["coassoc", params["p"], params["q"], params["p2"], params["q2"]]) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_coassoc_exit_one_when_the_constraint_holds_but_the_recouplings_differ(
        capsys, monkeypatch):
    # the command reads the constraint from coassoc_constraint alone
    monkeypatch.setattr(cli, "coassoc_constraint", lambda *args: True)
    assert main(["coassoc", "1/2", "1/2", "1/2", "1/2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["constraint_holds"] and not doc["operators_equal"]


def test_coassoc_out_of_range_exit_two(capsys):
    assert main(["coassoc", "1/2", "1", "1/2", "1/2"]) == 2
    assert main(["coassoc", "3/2", "1/3", "1/2", "1/2"]) == 2


@pytest.mark.parametrize("nmax", ["0", "-1", "-3"])
def test_coassoc_vacuous_nmax_exit_two(capsys, nmax):
    assert main(["coassoc", "1/2", "1/3", "1/5", "2/5", "--nmax", nmax]) == 2
    assert capsys.readouterr().out == ""


def test_coassoc_unwritable_output_exit_three(tmp_path, capsys):
    assert main(["coassoc", "1/2", "1/3", "1/6", "2/5", "--output", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot write report: ")


def test_version(capsys):
    assert main(["version"]) == 0
    assert "askeycg" in capsys.readouterr().out


def test_suite_failure_yields_exit_one(tmp_path, monkeypatch):
    # corrupt one check through the library surface: a doctored suite run
    inst = make_instance(FamilyKind.KRAWTCHOUK, p=F(1, 3), n_max=3)
    rep = run_verify_suite(inst, checks=["contiguity"])
    assert rep.passed
    from askeycg import families
    from askeycg.report import CheckResult

    def broken(run):
        return [CheckResult.fail("raising-contiguity", "", {"N": 0}, "1", "2")]

    monkeypatch.setattr("askeycg.cli.check_contiguity", broken)
    code = main(["verify", "--family", "krawtchouk", "--p", "1/3", "--nmax", "3",
                 "--checks", "contiguity", "--output", str(tmp_path / "r.json")])
    assert code == 1


# the parameters make_instance accepts, per kind
_DRAWN_PARAMS = {
    FamilyKind.HAHN: ("alpha", "beta", "lambda1", "lambda2"),
    FamilyKind.KRAWTCHOUK: ("p", "lambda1", "lambda2"),
    FamilyKind.DUAL_HAHN: ("alpha", "lambda1", "lambda2"),
    FamilyKind.RACAH: ("alpha", "beta", "lambda1", "lambda2"),
    FamilyKind.Q_HAHN: ("q", "alpha", "beta", "kappa1", "kappa2"),
    FamilyKind.Q_RACAH: ("q", "alpha", "beta", "kappa1", "kappa2"),
}


@st.composite
def accepted_instances(draw):
    kind = draw(st.sampled_from(list(FamilyKind)))
    small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    params = {name: draw(small) for name in _DRAWN_PARAMS[kind]}
    try:
        return make_instance(kind, n_max=draw(st.integers(1, 3)), **params)
    except InvalidParameterError:
        assume(False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(inst=accepted_instances())
def test_accepted_instance_never_raises_in_verify(inst):
    # an accepted instance is a certificate: every check runs to a verdict,
    # and each failure names its counterexample
    rep = run_verify_suite(inst)
    assert [c.name for c in rep.checks] == CHECK_NAMES
    assert all(c.witness is not None for c in rep.checks if not c.passed)
    # and it passes: make_instance rejects every point where T_N is reducible,
    # the one way an accepted instance failed (orthogonality, "Omega_0 vanishes")
    assert rep.passed, rep.first_failure()


def test_oracle_catches_a_rescaled_column(monkeypatch):
    # column 1 tripled at every level still satisfies every linear check;
    # only the oracle, which fixes each tower's scale from Delta, tells
    def tripled(inst, N):
        P = cg_block(inst, N).P
        return CGBlock.from_matrix(N, RatMat.build(N + 1, N + 1,
                                       lambda n, k: P.entry(n, k) * (3 if k == 1 else 1)))

    monkeypatch.setattr("askeycg.cgverify.cg_block", tripled)
    failed = {c["name"]: c["witness"] for c in golden_report("hahn")["checks"]
              if not c["passed"]}
    assert failed == {"cg-oracle": {"where": {"N": "1", "n": "0", "k": "1"},
                                    "lhs": "1", "rhs": "3"}}


def block_from_rows(N: int, rows) -> CGBlock:
    """The level-N CG block with these rows of rationals."""
    return CGBlock.from_matrix(N, RatMat.from_rows(rows))


# block 3 gains 1 at (n, k) = (1, 2) and (2, 0): a check walking n-major (N, n,
# k) names a point of column 2 first, one walking k-major a point of column 0
TWO_POINT_WITNESSES = {
    # the dual Hahn sample sits at alpha = lambda1 - 1, so three-term runs too
    FamilyKind.DUAL_HAHN: {
        "raising-contiguity": ({"N": "2", "n": "1", "k": "2"}, "-2", "-3"),
        "lowering-contiguity": ({"N": "3", "n": "0", "k": "2"}, "-9", "-11"),
        "three-term": ({"N": "3", "n": "0", "k": "2"}, "22", "20"),
        "raising": ({"N": "2", "n": "2", "k": "0"}, "3", "4"),
        "lowering": ({"N": "3", "n": "1", "k": "0"}, "-48", "-42"),
        "cg-oracle": ({"N": "3", "n": "1", "k": "2"}, "-3", "-2"),
        "orthogonality": ({"error": "block 3, step 4: (T_N P)[1][0] != (P Lambda)[1][0]"},
                          "", ""),
    },
    FamilyKind.HAHN: {
        "raising-contiguity": ({"N": "2", "n": "1", "k": "2"}, "7/2", "5/2"),
        "lowering-contiguity": ({"N": "3", "n": "0", "k": "2"}, "-1", "-5"),
        "raising": ({"N": "2", "n": "2", "k": "0"}, "3", "4"),
        "lowering": ({"N": "3", "n": "1", "k": "0"}, "-42/5", "-6"),
        "cg-oracle": ({"N": "3", "n": "1", "k": "2"}, "5/2", "7/2"),
        "orthogonality": ({"error": "block 3, step 4: (T_N P)[1][0] != (P Lambda)[1][0]"},
                          "", ""),
    },
    FamilyKind.Q_RACAH: {
        "raising-contiguity": ({"N": "2", "n": "1", "k": "2"}, "9643/4769", "4874/4769"),
        "lowering-contiguity": ({"N": "3", "n": "0", "k": "2"}, "9215/12288",
                                "590881/380928"),
        "raising": ({"N": "2", "n": "2", "k": "0"}, "21/16", "37/16"),
        "lowering": ({"N": "3", "n": "1", "k": "0"}, "14756365/6832128", "20125/16384"),
        "cg-oracle": ({"N": "3", "n": "1", "k": "2"}, "4874/4769", "9643/4769"),
        "orthogonality": ({"error": "block 3, step 4: (T_N P)[1][0] != (P Lambda)[1][0]"},
                          "", ""),
    },
}


FIRST_FAILURE_RANGES = {
    "raising-contiguity": "0<=N<4, -1<=n<=N+1, 0<=k<=N",
    "lowering-contiguity": "0<=N<4, -1<=n<=N+1, 0<=k<=N",
    "three-term": "0<=n,k<=N<=4",
    "raising": "block 0 -> 1, 0<=k<=0; block 1 -> 2, 0<=k<=1; block 2 -> 3, 0<=k<=2",
    "lowering": "block 1 -> 0, 0<=k<=1; block 2 -> 1, 0<=k<=2; block 3 -> 2, 0<=k<=3",
    "cg-oracle": "all blocks N<=4",
    "orthogonality": "blocks 0..4",
}


@pytest.mark.parametrize("kind", list(TWO_POINT_WITNESSES), ids=lambda k: k.value)
def test_block_readers_name_the_first_failure_in_their_own_order(kind, monkeypatch):
    # contiguity and the oracle walk n-major, raising and lowering k-major
    # within a level; a kernel that reorders its loops names another point
    def corrupted(inst, N):
        P = cg_block(inst, N).P
        return block_from_rows(N, [[P.entry(n, k) + (N == 3 and (n, k) in ((1, 2), (2, 0)))
                                    for k in range(N + 1)] for n in range(N + 1)])

    inst = sample_instance(kind, n_max=4)
    blocks = {N: corrupted(inst, N) for N in range(inst.n_max + 1)}
    checks = [c.to_dict() for c in families.check_contiguity(run_with(inst, blocks=blocks))]
    monkeypatch.setattr("askeycg.cgverify.cg_block", corrupted)
    checks += run_verify_suite(inst).to_dict()["checks"]
    want = TWO_POINT_WITNESSES[kind]
    assert {c["name"]: c["witness"] for c in checks if c["name"] in want} == {
        name: {"where": where, "lhs": lhs, "rhs": rhs} for name, (where, lhs, rhs) in want.items()}
    # a check that walks levels stops after the first failing one, block 3 here
    assert {c["name"]: c["checked_range"] for c in checks if c["name"] in want} == {
        name: FIRST_FAILURE_RANGES[name] for name in want}


# -- shared artifacts: each built at most once, and only when a check needs it --

def count_calls(monkeypatch, module, name, replacement=None) -> list:
    """Route every askeycg binding of module.name through a recorder; the
    recorded calls are returned, and replacement, when given, runs instead."""
    original = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return (replacement or original)(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "askeycg" or key.startswith("askeycg."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, recorded)
    return calls


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_full_run_evaluates_contiguity_once(kind, monkeypatch):
    # contiguity, Delta and the derived side of algebraic-form share one table
    inst = sample_instance(kind, n_max=3)
    calls = count_calls(monkeypatch, families, "contiguity")
    deltas = count_calls(monkeypatch, coproduct, "build_delta")
    rep = run_verify_suite(inst)
    assert [c.name for c in rep.checks if c.skipped] == (
        ["three-term", "twist"] if kind is not FamilyKind.DUAL_HAHN else ["twist"])
    assert len(calls) == 1 and len(deltas) == 1


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_full_run_builds_each_factor_module_and_delta_once(kind, monkeypatch):
    # relations and casimir share the generators of the two factor modules;
    # every check that reads a block or an eigenvalue shares one per level
    inst = sample_instance(kind, n_max=3)
    gens = count_calls(monkeypatch, algebras, "build_generators")
    deltas = count_calls(monkeypatch, coproduct, "build_delta")
    blocks = count_calls(monkeypatch, cgverify, "cg_block")
    eigenvalues = count_calls(monkeypatch, cgverify, "component_eigenvalues")
    assert run_verify_suite(inst).passed
    assert len(gens) == 2 and len(deltas) == 1
    assert len(blocks) == len(eigenvalues) == inst.n_max + 1


def test_twist_run_builds_one_delta(monkeypatch):
    # the twist check reads the run's Delta instead of building its own
    deltas = count_calls(monkeypatch, coproduct, "build_delta")
    rep = golden_report("q-racah-twist")
    assert not next(c for c in rep["checks"] if c["name"] == "twist")["skipped"]
    assert len(deltas) == 1


def test_table_builds_one_delta(monkeypatch):
    deltas = count_calls(monkeypatch, coproduct, "build_delta")
    table_doc(sample_instance(FamilyKind.RACAH, n_max=3))
    assert len(deltas) == 1


def test_relations_and_casimir_build_no_coefficients(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, families, "contiguity")
    deltas = count_calls(monkeypatch, coproduct, "build_delta")
    code = main(["verify", "--family", "q-racah", "--q", "1/4", "--kappa1", "1/2",
                 "--kappa2", "1/3", "--alpha", "1/5", "--beta", "1/7", "--nmax", "3",
                 "--checks", "relations,casimir", "--output", str(tmp_path / "r.json")])
    assert code == 0
    assert calls == [] and deltas == []


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_algebraic_form_never_reads_contiguity(kind, monkeypatch):
    inst = sample_instance(kind, n_max=5)
    run = run_with(inst, contiguity=families.contiguity(inst))  # built before the patch

    def refuse(inst):
        raise AssertionError("algebraic_form read the contiguity data")

    count_calls(monkeypatch, families, "contiguity", refuse)
    closed = coproduct.algebraic_form(inst)
    for name in ("x", "y", "xp", "yp"):
        fn = getattr(closed, name)
        for n in range(inst.n_max + 1):
            for m in range(inst.n_max + 1):
                fn(n, m)
    assert all(c.passed for c in coproduct.check_algebraic_form(run))


@pytest.mark.parametrize("inst,corrupt,witness", [
    (make_instance(FamilyKind.Q_HAHN, n_max=4, q=F(1, 4), alpha=F(1, 3), beta=F(2, 5)),
     lambda g: algebras.Generators(g.e, g.f, with_entry(g.hk, 2, (0, 0), 2 * g.hk.blocks[2][0, 0])),
     {"where": {"label": "1", "level": "2"}, "lhs": "1/2", "rhs": "1"}),
    (make_instance(FamilyKind.RACAH, n_max=4, lambda1=F(2), lambda2=F(5, 2),
                   alpha=F(1, 3), beta=F(1, 5)),
     lambda g: algebras.Generators(g.e, with_entry(g.f, 2, (0, 0), F(1)), g.hk),
     {"where": {"label": "2", "level": "2"}, "lhs": "28", "rhs": "0"})],
    ids=["q-hahn", "racah"])
def test_casimir_witness_names_the_factor_module(inst, corrupt, witness, monkeypatch):
    build = algebras.build_generators
    monkeypatch.setattr("askeycg.cgverify.build_generators",
                        lambda module: corrupt(build(module)))
    check = run_verify_suite(inst, ["casimir"]).to_dict()["checks"][CHECK_NAMES.index("casimir")]
    assert check == {"name": "casimir", "passed": False, "skipped": False, "reason": "",
                     "checked_range": "levels 0..3", "witness": witness}


def test_benchmark_surface_resolves():
    # every span the benchmark traces names a live function or method, read
    # from bench/run.py without importing it, and the block rows it measures
    # hold Fractions
    import ast
    import importlib
    source = (Path(__file__).resolve().parent.parent / "bench" / "run.py").read_text(
        encoding="utf-8")
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    assert len(traced) >= 20
    for span, (module, attr) in traced.items():
        target = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(target, part), (span, module, attr)
            target = getattr(target, part)
        assert callable(target), span
    for kind in FamilyKind:
        inst = sample_instance(kind, n_max=3)
        for N in range(inst.n_max + 1):
            rows = cg_block(inst, N).P.a
            assert len(rows) == N + 1
            assert all(len(row) == N + 1 and all(type(x) is F for x in row) for row in rows)


def test_every_public_name_resolves():
    # each module's __all__, and every name the package imports from its modules
    import ast
    import importlib
    import pkgutil
    for info in pkgutil.iter_modules(askeycg.__path__):
        module = importlib.import_module(f"askeycg.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    tree = ast.parse(open(askeycg.__file__, encoding="utf-8").read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"askeycg.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(askeycg, alias.asname or alias.name) is getattr(module, alias.name)


def _runner(name):
    """cli._CHECKS' runner of the named check on a small instance it applies to:
    the dual Hahn sample sits at alpha = lambda1 - 1, so three-term runs."""
    def run():
        inst = (make_instance(FamilyKind.Q_RACAH, q=F(1, 4), kappa1=F(1, 2), kappa2=F(1, 3),
                              alpha=F(1), beta=F(0), n_max=3) if name == "twist"
                else sample_instance(FamilyKind.DUAL_HAHN, n_max=3))
        return cli._CHECKS[name][1](Run(inst))
    return run


def _casimir_on_corrupted_lowering():
    # test_casimir_witness_on_corrupted_lowering's oscillator case
    module = ModuleSpec(AlgebraKind(AlgebraTag.OSC), F(5), 5)
    gens = build_generators(module)
    f = with_entry(gens.f, 3, (0, 0), gens.f.blocks[3][0, 0] + 1)
    return casimir(module, Generators(gens.e, f, gens.hk))


SL2_MODULE = ModuleSpec(AlgebraKind(AlgebraTag.SL2), F(3), 4)

# name -> (certificate call, whether it fails); each failing input has a
# witness pinned elsewhere
CERTIFICATES = {
    **{f"runner:{name}": (_runner(name), False) for name in CHECK_NAMES},
    "check_relations": (lambda: check_relations(SL2_MODULE), False),
    "casimir": (lambda: casimir(SL2_MODULE), False),
    "casimir:failing": (_casimir_on_corrupted_lowering, True),
    "limit_hahn_to_krawtchouk": (lambda: limit_hahn_to_krawtchouk(
        F(1, 3), [F(1000), F(10 ** 6)], 1, 1, 2), False),
    "limit_hahn_to_krawtchouk:failing": (lambda: limit_hahn_to_krawtchouk(
        F(1, 3), [F(3, 2), F(203, 2)], 2, 2, 3), True),
    "limit_racah_to_dual_hahn": (lambda: limit_racah_to_dual_hahn(
        F(1), F(2), F(3), [F(1000), F(10 ** 6)], n_max=4), False),
    "limit_racah_to_dual_hahn:failing": (lambda: limit_racah_to_dual_hahn(
        F(1, 2), F(2), F(3), [F(1, 3), F(2, 3)], n_max=4), True),
    "krawtchouk_coassoc": (lambda: krawtchouk_coassoc(F(1, 2), F(1, 3), F(1, 6), F(2, 5)), False),
    "krawtchouk_coassoc:failing": (lambda: krawtchouk_coassoc(
        F(1, 2), F(1, 2), F(1, 2), F(1, 2)), True),
    "check_twist_qracah_specialization": (lambda: check_twist_qracah_specialization(
        F(1, 4), F(1, 2), F(1, 3), 3), False),
}


@pytest.mark.parametrize("name", list(CERTIFICATES))
def test_every_certificate_returns_a_list_of_check_results(name):
    certify, fails = CERTIFICATES[name]
    results = certify()
    assert type(results) is list and results
    assert all(type(c) is CheckResult for c in results)
    assert (first_failure(results) is not None) == fails
