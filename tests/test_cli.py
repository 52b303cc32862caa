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
from askeycg import algebras, coproduct, families
from askeycg.cgverify import CGBlock, WeightData, cg_block, orthogonality_weights
from askeycg.cli import CHECK_NAMES, main, run_verify_suite, table_doc
from askeycg.exactmath import InvalidParameterError, parse_scalar
from askeycg.families import FamilyKind, make_instance, poly_value
from askeycg.linalg import RatMat

from test_algebras import with_entry
from test_families import sample_instance
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
    # the Racah point whose orthogonality weights degenerate on block 2
    done = run_module("verify", "--family", "racah", "--alpha", "1/3", "--beta", "1",
                      "--lambda1", "3/2", "--lambda2", "5", "--nmax", "3",
                      "--checks", "orthogonality")
    assert done.returncode == 1
    assert json.loads(done.stdout)["passed"] is False


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
    for rec in doc["blocks"]:
        blk = CGBlock(int(rec["N"]), RatMat.from_rows(
            [[parse_scalar(x) for x in row] for row in rec["P"]]))
        weights = WeightData(int(rec["N"]), tuple(parse_scalar(x) for x in rec["omega"]),
                             tuple(parse_scalar(x) for x in rec["omega_prime"]))
        assert rec["normalization"] == "omega0=1"
        assert blk == cg_block(inst, blk.N)
        assert [list(row) for row in blk.P.a] == [
            [poly_value(inst, n, k, blk.N) for k in range(blk.N + 1)]
            for n in range(blk.N + 1)]
        assert weights == orthogonality_weights(inst, blk.N)


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


def test_coassoc_out_of_range_exit_two(capsys):
    assert main(["coassoc", "1/2", "1", "1/2", "1/2"]) == 2
    assert main(["coassoc", "3/2", "1/3", "1/2", "1/2"]) == 2


@pytest.mark.parametrize("nmax", ["0", "-1", "-3"])
def test_coassoc_vacuous_nmax_exit_two(capsys, nmax):
    assert main(["coassoc", "1/2", "1/3", "1/5", "2/5", "--nmax", nmax]) == 2
    assert capsys.readouterr().out == ""


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

    def broken(inst, data=None, blocks=None):
        from askeycg.report import Report
        out = Report(suite="contiguity")
        out.add(CheckResult.fail("raising-contiguity", "", {"N": 0}, "1", "2"))
        return out

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


def test_oracle_catches_a_rescaled_column(monkeypatch):
    # column 1 tripled at every level still satisfies every linear check;
    # only the oracle, which fixes each tower's scale from Delta, tells
    def tripled(inst, N):
        P = cg_block(inst, N).P
        return CGBlock(N, RatMat.build(N + 1, N + 1,
                                       lambda n, k: P.entry(n, k) * (3 if k == 1 else 1)))

    monkeypatch.setattr("askeycg.cli.cg_block", tripled)
    failed = {c["name"]: c["witness"] for c in golden_report("hahn")["checks"]
              if not c["passed"]}
    assert failed == {"cg-oracle": {"where": {"N": "1", "n": "0", "k": "1"},
                                    "lhs": "1", "rhs": "3"}}


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
    # relations and casimir share the generators of the two factor modules
    inst = sample_instance(kind, n_max=3)
    gens = count_calls(monkeypatch, algebras, "build_generators")
    deltas = count_calls(monkeypatch, coproduct, "build_delta")
    assert run_verify_suite(inst).passed
    assert len(gens) == 2 and len(deltas) == 1


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
    derived = coproduct.coproduct_coeffs(inst)  # built before the patch

    def refuse(inst):
        raise AssertionError("algebraic_form read the contiguity data")

    count_calls(monkeypatch, families, "contiguity", refuse)
    closed = coproduct.algebraic_form(inst)
    for name in ("x", "y", "xp", "yp"):
        fn = getattr(closed, name)
        for n in range(inst.n_max + 1):
            for m in range(inst.n_max + 1):
                fn(n, m)
    assert coproduct.check_algebraic_form(inst, derived).passed


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
    monkeypatch.setattr("askeycg.cli.build_generators", lambda module: corrupt(build(module)))
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
