"""askeycg benchmark: certification throughput and latency, end to end and per module.

    python3 bench/run.py --workload sweep --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one child each

Run it from the root of a checkout; the program is imported from `src/`.

An op is one certification as `askeycg verify` delivers it: `run_verify_suite`
on a prepared instance, then `Report.to_dict()` and `json.dumps`. Ops run one
at a time in a closed loop: one full pass over the workload's instances, then
further ops in the same order until `--seconds` of wall time have gone.
Instances are drawn from `--seed` and built with `make_instance` before the
clock starts; that build is timed as `setup_s`. Every op's report is checked
(see `output_problems`).

A fixed piece of big-integer arithmetic (`reference_chunk`) runs after every
build and every op; its median time tracks the shared host's speed, and the
reported times are rescaled to the speed at which it takes
REFERENCE_NOMINAL_S. The unscaled wall times are in the metadata line.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics, taken from one untraced and one
traced pass (see bench/README.md). The line before it is run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from askeycg import cgverify, cli, families
    from askeycg.exactmath import InvalidParameterError
except ImportError as exc:
    sys.exit(f"bench: cannot import askeycg from {ROOT / 'src'}: {exc}")
if Path(cli.__file__).resolve().parent.parent != (ROOT / "src").resolve():
    sys.exit(f"bench: askeycg was imported from {cli.__file__}, not from {ROOT / 'src'}")

from spans import NullTracer, Tracer

CHECKS = ("contiguity", "three-term", "relations", "casimir", "homomorphism",
          "algebraic-form", "grading", "raising", "lowering", "cg-oracle",
          "orthogonality", "twist")
FAMILIES = ("hahn", "krawtchouk", "dual-hahn", "racah", "q-hahn", "q-racah")
STRUCTURE_CHECKS = ("relations", "casimir", "homomorphism", "algebraic-form", "grading")
SETUP_REPEATS = 31
REFERENCE_TERMS = 1200
REFERENCE_NOMINAL_S = 0.012  # one reference chunk at the reference machine's usual speed


@dataclass(frozen=True)
class Workload:
    name: str
    n_max: int
    draws: int                 # seeded draws per family
    extras: tuple[str, ...]    # special instances that enable three-term / twist
    checks: tuple[str, ...] | None  # None selects every check


# Why each workload exists is recorded in bench/README.md. BENCHMARK.json
# gates sweep and structure; deep is too noisy on a shared machine to gate.
WORKLOADS = {
    "sweep": Workload("sweep", 8, 15, ("three-term", "twist"), None),
    "deep": Workload("deep", 14, 1, (), None),
    "structure": Workload("structure", 12, 11, ("twist",), STRUCTURE_CHECKS),
}

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB"}

# span name -> (module, attribute); "Class.method" attributes wrap the method
TRACED = {
    "exactmath.hyper_terminating": ("askeycg.exactmath", "hyper_terminating"),
    "exactmath.q_hyper_terminating": ("askeycg.exactmath", "q_hyper_terminating"),
    "exactmath.q_pochhammer": ("askeycg.exactmath", "q_pochhammer"),
    "exactmath.q_binomial": ("askeycg.exactmath", "q_binomial"),
    "families.make_instance": ("askeycg.families", "make_instance"),
    "families.poly_value": ("askeycg.families", "poly_value"),
    "families.check_contiguity": ("askeycg.families", "check_contiguity"),
    "families.check_three_term_dual_hahn": ("askeycg.families", "check_three_term_dual_hahn"),
    "linalg.RatMat.matmul": ("askeycg.linalg", "RatMat.__matmul__"),
    "linalg.RatMat.build": ("askeycg.linalg", "RatMat.build"),
    "linalg.nullspace": ("askeycg.linalg", "nullspace"),
    "linalg.rank": ("askeycg.linalg", "rank"),
    "algebras.GradedOperator.matmul": ("askeycg.algebras", "GradedOperator.__matmul__"),
    "algebras.check_relations": ("askeycg.algebras", "check_relations"),
    "algebras.casimir": ("askeycg.algebras", "casimir"),
    "coproduct.build_delta": ("askeycg.coproduct", "build_delta"),
    "coproduct.check_homomorphism": ("askeycg.coproduct", "check_homomorphism"),
    "coproduct.check_algebraic_form": ("askeycg.coproduct", "check_algebraic_form"),
    "coproduct.check_twist_qracah_specialization":
        ("askeycg.coproduct", "check_twist_qracah_specialization"),
    "cgverify.cg_block": ("askeycg.cgverify", "cg_block"),
    "cgverify.lowest_weight_oracle": ("askeycg.cgverify", "lowest_weight_oracle"),
    "cgverify.orthogonality_weights": ("askeycg.cgverify", "orthogonality_weights"),
    "cgverify.verify_raising": ("askeycg.cgverify", "verify_raising"),
    "cgverify.verify_lowering": ("askeycg.cgverify", "verify_lowering"),
    "cgverify.verify_weight_grading": ("askeycg.cgverify", "verify_weight_grading"),
    "cli.run_verify_suite": ("askeycg.cli", "run_verify_suite"),
}

# per-layer metric -> unit; a name "<span>.<calls|s|self_s>" is read from the
# span aggregate, the others are computed in `layer_metrics`
PER_LAYER = {
    **{f"exactmath.{fn}.{m}": ("count" if m == "calls" else "s")
       for fn in ("hyper_terminating", "q_hyper_terminating", "q_pochhammer", "q_binomial")
       for m in ("calls", "self_s")},
    "families.make_instance.calls": "count",
    "families.make_instance.s": "s",
    "families.make_instance.rejected": "count",
    "families.poly_value.calls": "count",
    "families.poly_value.self_s": "s",
    "families.poly_value.distinct_ratio": "ratio",
    "families.check_contiguity.s": "s",
    "families.check_three_term_dual_hahn.s": "s",
    "linalg.RatMat.matmul.calls": "count",
    "linalg.RatMat.matmul.self_s": "s",
    "linalg.RatMat.build.self_s": "s",
    "linalg.nullspace.calls": "count",
    "linalg.nullspace.self_s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.self_s": "s",
    "algebras.GradedOperator.matmul.calls": "count",
    "algebras.GradedOperator.matmul.self_s": "s",
    "algebras.check_relations.s": "s",
    "algebras.casimir.s": "s",
    "coproduct.build_delta.calls": "count",
    "coproduct.build_delta.s": "s",
    "coproduct.check_homomorphism.s": "s",
    "coproduct.check_algebraic_form.s": "s",
    "coproduct.check_twist_qracah_specialization.s": "s",
    "cgverify.cg_block.calls": "count",
    "cgverify.cg_block.s": "s",
    **{f"cgverify.{fn}.s": "s"
       for fn in ("lowest_weight_oracle", "orthogonality_weights", "verify_raising",
                  "verify_lowering", "verify_weight_grading")},
    "cgverify.max_bits": "bits",
    "report.to_json.s": "s",
    "cli.run_verify_suite.s": "s",
    "cli.run_verify_suite.self_s": "s",
    **{f"cli.run_verify_suite.{fam}.s": "s" for fam in FAMILIES},
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _unit(rng) -> Fraction:
    den = rng.randint(2, 20)
    return Fraction(rng.randint(1, den - 1), den)


def _positive(rng) -> Fraction:
    return Fraction(rng.randint(1, 20), rng.randint(1, 20))


def _q(rng) -> Fraction:
    """A square of a rational in (0, 1), so U_q(sl2) standard-form checks run."""
    while True:
        base = Fraction(rng.randint(1, 3), rng.randint(2, 4))
        if base < 1:
            return base ** 2


def draw(kind: str, rng) -> dict:
    """Free parameters over the ranges of the acceptance draws."""
    if kind == "hahn":
        return {"alpha": _positive(rng), "beta": _positive(rng),
                "lambda1": _positive(rng), "lambda2": _positive(rng)}
    if kind == "krawtchouk":
        return {"p": _unit(rng), "lambda1": _positive(rng), "lambda2": _positive(rng)}
    if kind == "dual-hahn":
        l1, l2 = 1 + _positive(rng), 1 + _positive(rng)
        return {"lambda1": l1, "lambda2": l2, "alpha": (l1 + l2 - 2) * _unit(rng)}
    if kind == "racah":
        return {"lambda1": 1 + _positive(rng), "lambda2": 1 + _positive(rng),
                "alpha": _unit(rng), "beta": _unit(rng)}
    return {"q": _q(rng), "alpha": _unit(rng), "beta": _unit(rng),
            "kappa1": _unit(rng), "kappa2": _unit(rng)}


def draw_extra(extra: str, rng) -> tuple[str, dict]:
    """The parameter points on which `three-term` and `twist` are defined."""
    if extra == "three-term":
        l1 = 1 + _positive(rng)
        return "dual-hahn", {"lambda1": l1, "lambda2": 1 + _positive(rng),
                             "alpha": l1 - 1}
    q, k1 = _q(rng), _unit(rng)
    return "q-racah", {"q": q, "kappa1": k1, "kappa2": _unit(rng),
                       "alpha": k1 ** 2 / q, "beta": Fraction(0)}


@dataclass(frozen=True)
class Op:
    index: int
    family: str
    inst: object
    checks: tuple[str, ...] | None


def build_ops(wl: Workload, seed: int) -> tuple[list[Op], int]:
    """Draw and build the workload's instances; a draw that `make_instance`
    rejects is redrawn and counted. Instances that pass validation are kept
    whatever their later verdict."""
    rng = random.Random(f"askeycg-bench:{wl.name}:{seed}")
    plan = [(kind, None) for _ in range(wl.draws) for kind in FAMILIES]
    plan += [(None, extra) for extra in wl.extras]
    ops, rejected = [], 0
    for kind, extra in plan:
        while True:
            if extra is None:
                family, params = kind, draw(kind, rng)
            else:
                family, params = draw_extra(extra, rng)
            try:
                inst = families.make_instance(family, n_max=wl.n_max, **params)
                break
            except InvalidParameterError:
                rejected += 1
        checks = wl.checks if wl.checks is None or extra is None else wl.checks + (extra,)
        ops.append(Op(len(ops), family, inst, checks))
    return ops, rejected


def reference_chunk() -> float:
    """Wall time of a fixed piece of big-integer arithmetic that does not touch
    the program: a sum of REFERENCE_TERMS rationals kept reduced by hand, with
    operands of up to about 1700 bits. It allocates no containers, so nothing
    the program leaves on the heap changes its cost; only the host's speed does."""
    t0 = perf_counter()
    a, b = 1, 3
    for i in range(1, REFERENCE_TERMS):
        num = a * (i + 1) * i + b * (i + 2)
        den = b * (i + 2) * i
        g = gcd(num, den)
        a, b = num // g, den // g
    return perf_counter() - t0


def timed_setup(wl: Workload, seed: int, chunks: list[float]) -> tuple[float, list[Op], int]:
    """Median wall time of SETUP_REPEATS identical builds; a reference chunk
    follows each build."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ops, rejected = build_ops(wl, seed)
        times.append(perf_counter() - t0)
        chunks.append(reference_chunk())
    return statistics.median(times), ops, rejected


def replay_command(op: Op) -> str:
    """`askeycg verify` invocation that reruns this op."""
    doc = op.inst.to_doc()
    computed = {"dual-hahn": "beta", "racah": "gamma", "q-racah": "gamma"}.get(op.family)
    flags = [f"--{k} {v}" for k, v in doc.items()
             if k not in ("kind", "n_max", computed)]
    line = f"askeycg verify --family {op.family} {' '.join(flags)} --nmax {doc['n_max']}"
    return line + (f" --checks {','.join(op.checks)}" if op.checks else "")


# ---------------------------------------------------------------------------
# ops and their output check
# ---------------------------------------------------------------------------

def expected_checks(op: Op) -> set[str]:
    """Checks that must run (not be skipped) for this instance and selection."""
    inst = op.inst
    want = set(CHECKS if op.checks is None else op.checks)
    if not (op.family == "dual-hahn" and inst.alpha == inst.lambda1 - 1):
        want.discard("three-term")
    if not (op.family == "q-racah" and inst.beta == 0
            and inst.alpha == inst.kappa1 ** 2 / inst.q):
        want.discard("twist")
    return want


def output_problems(op: Op, doc: dict, text: str) -> list[str]:
    """Reasons the op's report is not a complete, faithful certificate."""
    problems = []
    if json.loads(text) != doc or json.dumps(json.loads(text), indent=2) != text:
        problems.append("report does not round-trip through JSON")
    checks = doc["checks"]
    names = [c["name"] for c in checks]
    if sorted(names) != sorted(CHECKS):
        problems.append(f"report lists {names}, not the 12 named checks")
    ran = {c["name"] for c in checks if not c["skipped"]}
    want = expected_checks(op)
    if ran != want:
        problems.append(f"checks run {sorted(ran)} differ from expected {sorted(want)}")
    for c in checks:
        if not c["passed"] and c["witness"] is None:
            problems.append(f"{c['name']} failed without a witness")
        if c["skipped"] and not c["reason"]:
            problems.append(f"{c['name']} skipped without a reason")
    if doc["passed"] != all(c["passed"] for c in checks):
        problems.append("report verdict disagrees with its checks")
    return problems


@dataclass
class Outcome:
    op: Op
    elapsed: float
    passed: bool = False
    problems: list[str] = field(default_factory=list)
    error: str | None = None
    verdict: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems) or not self.passed

    def failure(self) -> dict:
        rec = {"op": self.op.index, "family": self.op.family}
        if self.error is not None:
            rec["error"] = self.error.strip().splitlines()[-1]
        if self.problems:
            rec["problems"] = self.problems
        rec["failed_checks"] = [v[0] for v in self.verdict if not v[1]]
        return rec


def run_op(op: Op, suite, tracer) -> Outcome:
    t0 = perf_counter()
    try:
        rep = suite(op.inst, list(op.checks) if op.checks else None)
        with tracer.span("report.to_json"):
            doc = rep.to_dict()
            text = json.dumps(doc, indent=2)
    except Exception:  # an op that raises is a failed op; the run goes on
        out = Outcome(op, perf_counter() - t0, error=traceback.format_exc())
        print(out.error, file=sys.stderr)
        return out
    elapsed = perf_counter() - t0
    verdict = sorted([c["name"], c["passed"], c["skipped"],
                      c["witness"]["where"] if c["witness"] else None]
                     for c in doc["checks"])
    return Outcome(op, elapsed, bool(doc["passed"]), output_problems(op, doc, text),
                   verdict=verdict)


def run_pass(ops: list[Op], suite, tracer=NullTracer()) -> list[Outcome]:
    outcomes = []
    for op in ops:
        tracer.op_id = op.index
        outcomes.append(run_op(op, suite, tracer))
    tracer.op_id = -1
    return outcomes


def fingerprint(outcomes: list[Outcome]) -> str:
    """Digest of every check's name, passed, skipped and witness location."""
    body = [[o.op.index, o.verdict if o.error is None else "error"] for o in outcomes]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()[:16]


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it; the maximum
    when there are fewer than 11 samples. Returns (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    i = n - 11
    return ordered[i], 100.0 * (i + 1) / n


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def base_meta(wl: Workload, seed: int, ops: list[Op], rejected: int) -> dict:
    return {
        "workload": wl.name, "seed": seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "n_max": wl.n_max, "ops": len(ops),
        "checks": "all" if wl.checks is None else ",".join(wl.checks),
        "rejected_draws": rejected,
        "instances": [{"op": op.index, "doc": op.inst.to_doc(),
                       "replay": replay_command(op)} for op in ops],
    }


def repeatable(outcomes: list[Outcome]) -> bool:
    """Every repeat of an op reached the same verdict as its first run."""
    first = {}
    for o in outcomes:
        key = o.verdict if o.error is None else "error"
        if first.setdefault(o.op.index, key) != key:
            return False
    return True


def run_untraced(wl: Workload, seed: int, seconds: float, suite=None):
    """End-to-end metrics. One full pass over the ops, then further ops in
    the same order until `seconds` of wall time have gone. Each op's latency
    is the median of its repeats, so a partial last pass does not tilt the mix.

    `attempted` and `failed` count each instance once, from its first run:
    repeats only add timing samples, and a repeat whose verdict differs from
    the first run makes the result incorrect (see `repeatable`). So the counts
    depend on the seed alone, not on how many repeats fit in `seconds`."""
    suite = suite or cli.run_verify_suite
    chunks = []
    setup_s, ops, rejected = timed_setup(wl, seed, chunks)
    outcomes = []
    t0 = perf_counter()
    while len(outcomes) < len(ops) or perf_counter() - t0 < seconds:
        outcomes.append(run_op(ops[len(outcomes) % len(ops)], suite, NullTracer()))
        chunks.append(reference_chunk())
    per_op = [statistics.median(o.elapsed for o in outcomes[i::len(ops)])
              for i in range(len(ops))]
    tail, pct = tail_latency(per_op)
    failed = sum(o.failed for o in outcomes[:len(ops)])
    correct = repeatable(outcomes) and not any(o.problems or o.error for o in outcomes)
    raw = {"setup_s": setup_s, "ops_per_s": len(ops) / sum(per_op),
           "op_p50_s": statistics.median(per_op), "op_tail_s": tail}
    # times are rescaled to the host speed at which a reference chunk takes
    # REFERENCE_NOMINAL_S, so that the shared host's drift cancels out
    host_factor = REFERENCE_NOMINAL_S / statistics.median(chunks)
    metrics = {
        "setup_s": raw["setup_s"] * host_factor,
        "ops_per_s": raw["ops_per_s"] / host_factor,
        "op_p50_s": raw["op_p50_s"] * host_factor,
        "op_tail_s": raw["op_tail_s"] * host_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    meta = {**base_meta(wl, seed, ops, rejected),
            "seconds": seconds, "ops_run": len(outcomes),
            "host": {"reference_chunks": len(chunks), "host_factor": host_factor,
                     "wall": raw},
            "fingerprint": fingerprint(outcomes[:len(ops)]),
            "fail_share": {"value": failed / len(ops), "unit": "ratio"},
            "op_tail": {"percentile": pct, "samples": len(per_op),
                        "sample": "per-op median over repeats"},
            "failures": [o.failure() for o in outcomes[:len(ops)] if o.failed]}
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}
    return result, meta


def install(tracer: Tracer) -> None:
    for name, (module, attr) in TRACED.items():
        if "." in attr:
            tracer.wrap_method(name, module, *attr.split("."))
        else:
            tracer.wrap_function(name, module, attr,
                                 count_args=(name == "families.poly_value"))


def max_bits(ops: list[Op]) -> int:
    """Largest numerator-plus-denominator bit length of any CG block entry."""
    best = 0
    for op in ops:
        for N in range(op.inst.n_max + 1):
            for row in cgverify.cg_block(op.inst, N).P.a:
                for x in row:
                    best = max(best, x.numerator.bit_length() + x.denominator.bit_length())
    return best


def layer_metrics(tracer: Tracer, ops: list[Op], rejected: int,
                  overhead_s: float) -> dict:
    agg = tracer.aggregate()
    family_of = {op.index: op.family for op in ops}
    suite = agg.get("cli.run_verify_suite", {"by_op": {}})
    values = {
        "families.make_instance.rejected": rejected,
        "families.poly_value.distinct_ratio": tracer.distinct_ratio("families.poly_value"),
        "cgverify.max_bits": max_bits(ops),
        "trace.overhead_s": overhead_s,
        **{f"cli.run_verify_suite.{fam}.s":
           sum(s for i, s in suite["by_op"].items() if family_of.get(i) == fam)
           for fam in FAMILIES},
    }
    for name in PER_LAYER:
        if name not in values:
            span, _, stat = name.rpartition(".")
            values[name] = agg[span][stat] if span in agg else 0
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def run_traced(wl: Workload, seed: int, seconds: float, out_dir: Path = ROOT / ".bench_out"):
    """Per-layer metrics from one traced pass; the overhead is its op time
    minus that of an untraced pass over the same instances."""
    ops, rejected = build_ops(wl, seed)
    untraced = run_pass(ops, cli.run_verify_suite)
    tracer = Tracer()
    install(tracer)
    try:
        build_ops(wl, seed)
        traced = run_pass(ops, cli.run_verify_suite, tracer)
    finally:
        tracer.restore()
    overhead = sum(o.elapsed for o in traced) - sum(o.elapsed for o in untraced)
    metrics = layer_metrics(tracer, ops, rejected, overhead)
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{wl.name}-seed{seed}.json.gz"
    tracer.write(spans_file, {"workload": wl.name, "seed": seed,
                              "ops": [op.family for op in ops]})
    outcomes = untraced + traced
    failed = sum(o.failed for o in untraced)
    correct = repeatable(outcomes) and not any(o.problems or o.error for o in outcomes)
    meta = {**base_meta(wl, seed, ops, rejected), "seconds": seconds,
            "ops_run": len(outcomes), "fingerprint": fingerprint(untraced),
            "spans": len(tracer.start),
            "spans_file": os.path.relpath(spans_file, ROOT)}
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": metrics}, meta


def run_all(args) -> int:
    """Each workload in its own child process, one after another, so that
    peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_untraced
    result, meta = run(wl, args.seed, args.seconds)
    for name, m in result["metrics"].items():
        print(f"{wl.name} seed={args.seed} {name} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    if "fail_share" in meta:
        print(f"{wl.name} seed={args.seed} fail_share = {meta['fail_share']['value']:.6g} "
              f"ratio; op_tail_s is p{meta['op_tail']['percentile']:.1f} of "
              f"{meta['op_tail']['samples']} ops", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
