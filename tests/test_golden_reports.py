"""Golden verify reports: `run_verify_suite(...).to_dict()` must not change.

The JSON files under tests/golden/ were written by an earlier version of the
program; every refactor of the checks must reproduce them exactly, witnesses
and checked ranges included. To rewrite them after an intended change of the
report format:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from askeycg.cli import run_verify_suite
from askeycg.families import make_instance

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (family, parameters, n_max, checks)
CASES = {
    "hahn": ("hahn", {"alpha": F(1), "beta": F(1, 2), "lambda1": F(2), "lambda2": F(3)}, 4, None),
    "krawtchouk": ("krawtchouk", {"p": F(1, 3), "lambda1": F(1, 2), "lambda2": F(5)}, 4, None),
    "dual-hahn": ("dual-hahn", {"lambda1": F(2), "lambda2": F(3), "alpha": F(1, 2)}, 4, None),
    "racah": ("racah", {"lambda1": F(2), "lambda2": F(5, 2), "alpha": F(1, 3),
                        "beta": F(1, 5)}, 4, None),
    "q-hahn": ("q-hahn", {"q": F(1, 4), "alpha": F(1, 3), "beta": F(2, 5)}, 4, None),
    "q-racah": ("q-racah", {"q": F(1, 4), "kappa1": F(1, 2), "kappa2": F(1, 3),
                            "alpha": F(1, 5), "beta": F(1, 7)}, 4, None),
    "dual-hahn-three-term": ("dual-hahn", {"lambda1": F(5, 2), "lambda2": F(7, 3),
                                           "alpha": F(3, 2)}, 4, None),
    "q-racah-twist": ("q-racah", {"q": F(1, 4), "kappa1": F(1, 2), "kappa2": F(1, 3),
                                  "alpha": F(1), "beta": F(0)}, 4, None),
    "q-hahn-relations-grading": ("q-hahn", {"q": F(9, 16), "alpha": F(1, 3), "beta": F(2, 5),
                                            "kappa1": F(2, 3), "kappa2": F(3, 5)},
                                 4, ["relations", "grading"]),
    # accepted by make_instance, yet orthogonality fails: "Omega_0 vanishes"
    "racah-degenerate": ("racah", {"alpha": F(1, 3), "beta": F(1), "lambda1": F(3, 2),
                                   "lambda2": F(5)}, 4, None),
}


def report(name: str) -> dict:
    family, params, n_max, checks = CASES[name]
    inst = make_instance(family, n_max=n_max, **params)
    return run_verify_suite(inst, checks).to_dict()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert report(name) == golden


def test_degenerate_racah_fails_orthogonality_only():
    golden = json.loads((GOLDEN / "racah-degenerate.json").read_text())
    failed = {c["name"]: c["witness"] for c in golden["checks"] if not c["passed"]}
    assert list(failed) == ["orthogonality"]
    assert "Omega_0 vanishes" in failed["orthogonality"]["where"]["error"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.json").write_text(json.dumps(report(case), indent=2) + "\n")
