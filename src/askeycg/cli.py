"""Batch verification driver.

Subcommands:

    verify    run the check suites for one family instance, emit a JSON report
    table     print the CG blocks and orthogonality weights, text or JSON
    coassoc   compare the two Krawtchouk recoupling compositions
    version   print the tool version

`run_verify_suite` runs the named checks from one table; each entry has an
optional skip rule, kept beside its check (families.three_term_skip,
coproduct.twist_skip), and a runner, which returns the check's list of
CheckResults, folded into one report entry under its name. The runners
share one cgverify.Run of the instance, which builds each artifact (the
factor modules' generators, the contiguity data, Delta, the CG blocks, the
component eigenvalues) on first use within one call. verify and table read
the merged, validated settings as one dict (_settings).

Exit codes: 0 all selected checks pass, 1 a check failed, 2 invalid
parameters, unknown check names, a checks value that names no check, a
config key set twice, or every selected check skipped, 3 I/O or config parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebras import casimir, check_relations
from .cgverify import (DegenerateKernelError, Run, WeightSolutionError, _weight_certificate,
                       lowest_weight_oracle, orthogonality_weights, verify_lowering,
                       verify_raising, verify_weight_grading)
from .coproduct import (check_algebraic_form, check_homomorphism,
                        check_twist_qracah_specialization, coassoc_constraint,
                        krawtchouk_coassoc, twist_skip)
from .exactmath import InvalidParameterError, format_scalar, parse_scalar
from .families import (FamilyInstance, FamilyKind, check_contiguity,
                       check_three_term_dual_hahn, make_instance, three_term_skip)
from .linalg import column_mismatches
from .report import TOOL_VERSION, CheckResult, Report, Witness, first_failure, first_mismatch

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_IO = 3

_PARAM_FLAGS = ("alpha", "beta", "p", "q", "kappa1", "kappa2",
                "lambda1", "lambda2")
_CONFIG_KEYS = ("family", "nmax", "seed", "checks", "output", "format") + _PARAM_FLAGS
_FORMATS = ("text", "json")


def _collapse(name: str, results: list[CheckResult]) -> CheckResult:
    """Fold a check's results into a single suite entry, keeping the first witness."""
    ranges = "; ".join(c.checked_range for c in results if c.checked_range)
    bad = first_failure(results)
    if bad is None:
        return CheckResult.ok(name, ranges)
    return CheckResult(name, False, ranges, witness=bad.witness)


def _error_result(name: str, rng: str, exc: Exception) -> CheckResult:
    return CheckResult(name, False, rng,
                       witness=Witness({"error": str(exc)}, "", ""))


def _relations(run: Run) -> list[CheckResult]:
    return [c for module, gens in run.factors for c in check_relations(module, gens)]


def _casimir(run: Run) -> list[CheckResult]:
    rng = f"levels 0..{run.inst.n_max - 1}"
    for module, gens in run.factors:
        hit = first_failure(casimir(module, gens))
        if hit:
            return [CheckResult.fail(
                "casimir", rng, {"label": module.label, "level": hit.witness.where["level"]},
                hit.witness.lhs, hit.witness.rhs)]
    return [CheckResult.ok("casimir", rng)]


def _oracle(run: Run) -> list[CheckResult]:
    rng = f"all blocks N<={run.inst.n_max}"
    try:
        oracle = lowest_weight_oracle(run)
    except DegenerateKernelError as exc:
        return [_error_result("cg-oracle", rng, exc)]
    return [first_mismatch("cg-oracle", rng, _oracle_mismatches(oracle, run.blocks))]


def _oracle_mismatches(oracle, blocks):
    """The points where an oracle block and the CG block disagree, N, n, k in
    n-major order, as (where, lhs, rhs) with unreduced pairs. Levels stored
    alike are equal outright; the others go through linalg.column_mismatches
    with the identity band."""
    for N, block in enumerate(oracle):
        theirs = blocks[N].columns
        if block.columns != theirs:
            identity = {n: ([(n, 1)], 1) for n in range(N + 1)}
            yield from column_mismatches(N, identity, block.columns,
                                         [(1, 1, column) for column in theirs])


def _orthogonality(run: Run) -> list[CheckResult]:
    rng = f"blocks 0..{run.inst.n_max}"
    for N in range(run.inst.n_max + 1):
        try:
            _weight_certificate(run, N)
        except WeightSolutionError as exc:
            return [_error_result("orthogonality", rng, exc)]
    return [CheckResult.ok("orthogonality", rng)]


# name -> (skip rule giving a reason or None, runner); a runner takes the
# run and returns a list of CheckResults, folded into one entry under the
# name (_collapse). Each runner looks its check up by name when it runs, so a
# check patched in this module (by a tracer or a test) is the one called.
_CHECKS = {
    "contiguity": (None, lambda run: check_contiguity(run)),
    "three-term": (three_term_skip, lambda run: check_three_term_dual_hahn(run)),
    "relations": (None, _relations),
    "casimir": (None, _casimir),
    "homomorphism": (None, lambda run: check_homomorphism(run)),
    "algebraic-form": (None, lambda run: check_algebraic_form(run)),
    "grading": (None, lambda run: verify_weight_grading(run)),
    "raising": (None, lambda run: verify_raising(run)),
    "lowering": (None, lambda run: verify_lowering(run)),
    "cg-oracle": (None, _oracle),
    "orthogonality": (None, _orthogonality),
    "twist": (twist_skip, lambda run: check_twist_qracah_specialization(
        run.inst.q, run.inst.kappa1, run.inst.kappa2, run.inst.n_max, run.delta)),
}

CHECK_NAMES = list(_CHECKS)


def run_verify_suite(inst: FamilyInstance, checks: list[str] | None = None,
                     seed: int = 0) -> Report:
    """Run the selected named checks; every known check appears in the report,
    skipped entries carry their reason."""
    selected = list(CHECK_NAMES) if not checks else list(checks)
    unknown = [c for c in selected if c not in CHECK_NAMES]
    if unknown:
        raise InvalidParameterError(
            f"unknown check names: {', '.join(unknown)} "
            f"(known: {', '.join(CHECK_NAMES)})")
    run = Run(inst)
    checks = []
    for name, (skip, check) in _CHECKS.items():
        reason = "not selected" if name not in selected else skip and skip(inst)
        checks.append(CheckResult.skip(name, reason) if reason
                      else _collapse(name, check(run)))
    return Report(suite=f"verify:{inst.kind.value}",
                  params={**inst.to_doc(), "seed": str(seed)}, checks=checks)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict:
    """The file's key = value lines; a key set twice is invalid, not overwritten."""
    values, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in lines:
                raise InvalidParameterError(
                    f"{path}: config key {key!r} is set on line {lines[key]} "
                    f"and again on line {lineno}")
            values[key], lines[key] = val.strip(), lineno
    return values


def _settings(args) -> dict:
    """The run settings by _CONFIG_KEYS, flags over the config file, validated:
    nmax (8 by default) and seed (0) as ints, checks when given as a list."""
    settings = {}
    if getattr(args, "config", None):
        settings.update(_read_config(args.config))
    unknown = [k for k in settings if k not in _CONFIG_KEYS]
    if unknown:
        raise InvalidParameterError(f"unknown config keys: {', '.join(unknown)} "
                                    f"(known: {', '.join(_CONFIG_KEYS)})")
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    if settings.get("format", "text") not in _FORMATS:
        raise InvalidParameterError(
            f"format must be one of {', '.join(_FORMATS)}, got {settings['format']!r}")
    if "checks" in settings:
        checks = [c.strip() for c in str(settings["checks"]).split(",") if c.strip()]
        if not checks:
            raise InvalidParameterError(
                f"checks {settings['checks']!r} names no check "
                f"(known: {', '.join(CHECK_NAMES)})")
        settings["checks"] = checks
    for key, default in (("nmax", 8), ("seed", 0)):
        try:
            settings[key] = int(settings.get(key, default))
        except ValueError:
            raise InvalidParameterError(
                f"{key} must be an integer, got {settings[key]!r}") from None
    return settings


def _instance(settings: dict) -> FamilyInstance:
    """The instance of the settings' family, nmax and parameters."""
    family = settings.get("family")
    if not family:
        raise InvalidParameterError("a family must be given (--family or config)")
    try:
        kind = FamilyKind(family)
    except ValueError:
        options = ", ".join(k.value for k in FamilyKind)
        raise InvalidParameterError(
            f"unknown family {family!r} (options: {options})") from None
    return make_instance(kind, n_max=settings["nmax"],
                         **{k: v for k, v in settings.items() if k in _PARAM_FLAGS})


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _instance_command(args, work) -> int:
    """Shared plumbing of verify and table: merge the config file and flags,
    build the instance, let work(settings, inst) return (text, exit code),
    and write the text. Errors map to the documented exit codes."""
    try:
        settings = _settings(args)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read config: {exc}")
    except InvalidParameterError as exc:  # before ValueError, its base class
        return _fail(EXIT_INVALID, f"invalid parameters: {exc}")
    except ValueError as exc:
        return _fail(EXIT_IO, str(exc))
    try:
        text, code = work(settings, _instance(settings))
    except InvalidParameterError as exc:
        return _fail(EXIT_INVALID, f"invalid parameters: {exc}")
    except (WeightSolutionError, DegenerateKernelError) as exc:
        return _fail(EXIT_CHECK_FAILED, str(exc))
    try:
        _emit(text, settings.get("output"))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    return code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _verify(settings: dict, inst: FamilyInstance) -> tuple[str, int]:
    rep = run_verify_suite(inst, settings.get("checks"), settings["seed"])
    code = EXIT_OK if rep.passed else EXIT_CHECK_FAILED
    if all(c.skipped for c in rep.checks):
        selected = settings.get("checks") or CHECK_NAMES
        reasons = "; ".join(f"{c.name}: {c.reason}" for c in rep.checks if c.name in selected)
        code = _fail(EXIT_INVALID, f"every selected check was skipped ({reasons})")
    return json.dumps(rep.to_dict(), indent=2), code


def cmd_verify(args) -> int:
    return _instance_command(args, _verify)


def table_doc(inst: FamilyInstance) -> dict:
    run = Run(inst)
    blocks = []
    for N, blk in run.blocks.items():
        weights = orthogonality_weights(run, N)
        blocks.append({"N": N, "P": [[format_scalar(x) for x in row] for row in blk.P.a],
                       "omega": [format_scalar(x) for x in weights.omega],
                       "omega_prime": [format_scalar(x) for x in weights.omega_prime],
                       "normalization": "omega0=1"})
    return {"suite": f"table:{inst.kind.value}", "version": TOOL_VERSION,
            "params": inst.to_doc(), "blocks": blocks}


def _format_table_text(doc: dict) -> str:
    lines = [f"family {doc['params']['kind']}  " +
             " ".join(f"{k}={v}" for k, v in sorted(doc["params"].items())
                      if k not in ("kind",))]
    for blk in doc["blocks"]:
        lines.append(f"N = {blk['N']}")
        width = max((len(x) for row in blk["P"] for x in row), default=1)
        for n, row in enumerate(blk["P"]):
            lines.append("  n=%d  [%s]" % (n, "  ".join(x.rjust(width) for x in row)))
        lines.append("  omega       = (" + ", ".join(blk["omega"]) + ")")
        lines.append("  omega_prime = (" + ", ".join(blk["omega_prime"]) + ")")
    return "\n".join(lines)


def _table(settings: dict, inst: FamilyInstance) -> tuple[str, int]:
    doc = table_doc(inst)
    text = (json.dumps(doc, indent=2) if settings.get("format") == "json"
            else _format_table_text(doc))
    return text, EXIT_OK


def cmd_table(args) -> int:
    return _instance_command(args, _table)


def cmd_coassoc(args) -> int:
    try:
        p, q, p2, q2 = (parse_scalar(v) for v in (args.p, args.q, args.p2, args.q2))
        bad = first_failure(krawtchouk_coassoc(p, q, p2, q2, n_max=args.nmax))
    except InvalidParameterError as exc:
        return _fail(EXIT_INVALID, f"invalid parameters: {exc}")
    holds = coassoc_constraint(p, q, p2, q2)
    doc = {
        "suite": "coassoc:krawtchouk", "version": TOOL_VERSION,
        "params": {"p": format_scalar(p), "q": format_scalar(q),
                   "p2": format_scalar(p2), "q2": format_scalar(q2),
                   "n_max": str(args.nmax)},
        "constraint_holds": holds,
        "operators_equal": bad is None,
        "witness": bad and {"name": bad.name, **bad.witness.where,
                            "lhs": bad.witness.lhs, "rhs": bad.witness.rhs},
    }
    try:
        _emit(json.dumps(doc, indent=2), args.output)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write report: {exc}")
    return EXIT_OK if holds == (bad is None) else EXIT_CHECK_FAILED


def _add_instance_flags(sp) -> None:
    sp.add_argument("--family", help="one of " + ", ".join(k.value for k in FamilyKind))
    for name in _PARAM_FLAGS:
        sp.add_argument(f"--{name}", help="rational, as a/b or an integer; "
                                          f"write a negative one as --{name}=-1/4")
    sp.add_argument("--nmax", help="largest total level (default 8)")
    sp.add_argument("--config", help="flat key = value file; flags win")
    sp.add_argument("--output", help="write the JSON document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="askeycg",
        description="Exact verification of generalized Clebsch-Gordan "
                    "decompositions for the finite Askey-scheme families.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run the verification suites")
    _add_instance_flags(sp)
    sp.add_argument("--seed", help="seed echoed into the report (default 0)")
    sp.add_argument("--checks", help="comma-separated subset of: " + ", ".join(CHECK_NAMES))
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("table", help="print CG blocks and weights")
    _add_instance_flags(sp)
    sp.add_argument("--format", choices=_FORMATS, default=None)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("coassoc", help="Krawtchouk recoupling comparison")
    sp.add_argument("p")
    sp.add_argument("q")
    sp.add_argument("p2")
    sp.add_argument("q2")
    sp.add_argument("--nmax", type=int, default=4)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_coassoc)

    sp = sub.add_parser("version", help="print version")
    sp.set_defaults(func=lambda args: (print(f"askeycg {TOOL_VERSION}"), EXIT_OK)[1])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
