"""CPU time of each verify-run artifact and each named check, per workload.

    python3 tools/layer_times.py                       # structure and sweep, seed 1
    python3 tools/layer_times.py structure:2 deep:1    # chosen workload:seed pairs
    python3 tools/layer_times.py q-racah@48 --repeats 2   # one large draw, seed 0
    python3 tools/layer_times.py q-hahn@32:5           # kind@n_max:seed

For each (workload, seed) the instances are those of bench/run.py
(`WORKLOADS`, `build_ops`, imported read-only, never run). A KIND@NMAX[:SEED]
spec is one op instead, the instance cgverify.random_instance(KIND,
random.Random(SEED), NMAX), seed 0 by default, run with every check; it
prints the same lines as a workload, and one more before the setup lines:
the bit length of the largest integer its CG blocks store. One pass times,
for every op on a fresh `cgverify.Run`, each artifact as it is first built,
in dependency order (factors, contiguity, delta, bands, blocks,
eigenvalues), then each check the op selects and does not skip, on those
warm artifacts; it sums each line over the ops. After one untimed warm-up
pass, --repeats passes (REPEATS by default) are timed and the median CPU
milliseconds of each line are printed. The `verify` line is the same ops
through `run_verify_suite` on cold runs, which build only the artifacts
their checks read: the end-to-end cost of a pass. Two `setup` lines follow,
each the median CPU milliseconds of bench.SETUP_REPEATS in-process builds
of the ops (`build_ops`, what the benchmark's setup_s times, or the draw):
the whole build, then the `families.make_instance` calls inside it, timed
on builds of their own so that the timing wrapper's cost reaches neither
line. A last `host reference-chunk` line gives the median wall milliseconds
of HOST_CHUNKS calls of bench.reference_chunk(), arithmetic that does not
touch the program: the host's speed at the time, so that lines measured in
different sessions compare as ratios to it.
Stdlib only; no file is written. The program is imported from the `src/`
of the checkout that holds this file, whatever the working directory: to
time another checkout, run that checkout's own copy of the tool.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import process_time

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # the imports below leave no __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run as bench  # noqa: E402  (bench/run.py puts src/ on the path)

from askeycg import cgverify, cli  # noqa: E402
from askeycg.cgverify import Run  # noqa: E402

DEFAULT = ("structure:1", "sweep:1")
ARTIFACTS = ("factors", "contiguity", "delta", "bands", "blocks", "eigenvalues")
REPEATS = 5
HOST_CHUNKS = 31


@dataclass(frozen=True)
class Draw:
    """The one-op workload of a KIND@NMAX spec."""
    kind: str
    n_max: int


def parse(spec: str):
    """(workload, seed) of a WORKLOAD[:SEED] spec (seed 1 by default) or of a
    KIND@NMAX[:SEED] spec (a Draw, seed 0 by default)."""
    name, _, seed = spec.partition(":")
    if "@" in name:
        kind, _, n_max = name.partition("@")
        return Draw(kind, int(n_max)), int(seed or 0)
    return bench.WORKLOADS[name], int(seed or 1)


def build(wl, seed: int):
    """(ops, rejected): bench.build_ops of a workload, or the one op of a Draw,
    cgverify.random_instance(kind, random.Random(seed), n_max) with every
    check, its redraws not counted."""
    if isinstance(wl, Draw):
        inst = cgverify.random_instance(wl.kind, random.Random(seed), wl.n_max)
        return [bench.Op(0, inst.kind.value, inst, None)], 0
    return bench.build_ops(wl, seed)


def block_bits(ops) -> int:
    """The bit length of the largest integer, top or denominator, that the CG
    blocks of the ops store, each built on a fresh Run."""
    return max(x.bit_length() for op in ops for block in Run(op.inst).blocks.values()
               for a, c in block.columns for x in (*a, c))


def one_pass(ops) -> dict[tuple[str, str], float]:
    """CPU seconds of each artifact and check over one pass of the ops, then
    of the whole pass through run_verify_suite, keyed (kind, name): an
    artifact and a check may share a name (contiguity)."""
    times = {("artifact", name): 0.0 for name in ARTIFACTS}
    for op in ops:
        run = Run(op.inst)
        for name in ARTIFACTS:
            t0 = process_time()
            getattr(run, name)
            times["artifact", name] += process_time() - t0
        for name, (skip, check) in cli._CHECKS.items():
            if op.checks and name not in op.checks or skip and skip(op.inst):
                continue
            t0 = process_time()
            check(run)
            times["check", name] = times.get(("check", name), 0.0) + process_time() - t0
    t0 = process_time()
    for op in ops:
        cli.run_verify_suite(op.inst, list(op.checks) if op.checks else None)
    times["pass", "verify"] = process_time() - t0
    return times


def layer_times(ops, repeats: int = REPEATS) -> dict[tuple[str, str], float]:
    """Median CPU milliseconds of each line of one_pass over `repeats` timed
    passes, after one untimed pass."""
    one_pass(ops)
    passes = [one_pass(ops) for _ in range(repeats)]
    return {key: 1000 * statistics.median(p[key] for p in passes) for key in passes[0]}


def setup_times(wl, seed: int, repeats: int = bench.SETUP_REPEATS) -> dict[tuple[str, str], float]:
    """Median CPU milliseconds of `repeats` builds of the ops (build), and of
    the make_instance calls of each of `repeats` more builds, summed per
    build: bench.build_ops calls families.make_instance, a Draw
    cgverify.make_instance, and both are timed."""
    builds, instances, spent = [], [], [0.0]
    for _ in range(repeats):
        t0 = process_time()
        build(wl, seed)
        builds.append(process_time() - t0)
    original = bench.families.make_instance

    def timed(*args, **kwargs):
        t0 = process_time()
        try:
            return original(*args, **kwargs)
        finally:
            spent[0] += process_time() - t0

    bench.families.make_instance = cgverify.make_instance = timed
    try:
        for _ in range(repeats):
            spent[0] = 0.0
            build(wl, seed)
            instances.append(spent[0])
    finally:
        bench.families.make_instance = cgverify.make_instance = original
    return {("setup", "build_ops"): 1000 * statistics.median(builds),
            ("setup", "make_instance"): 1000 * statistics.median(instances)}


def host_reference() -> float:
    """Median wall milliseconds of HOST_CHUNKS calls of bench.reference_chunk()."""
    return 1000 * statistics.median(bench.reference_chunk() for _ in range(HOST_CHUNKS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="CPU time of each verify-run layer.")
    parser.add_argument("specs", nargs="*", default=list(DEFAULT),
                        help="WORKLOAD[:SEED] or KIND@NMAX[:SEED]")
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help=f"timed passes after the warm-up (default {REPEATS})")
    args = parser.parse_args(argv)
    for spec in args.specs:
        wl, seed = parse(spec)
        ops, _ = build(wl, seed)
        name = spec.partition(":")[0]
        print(f"{name} seed={seed}: {len(ops)} ops, median CPU ms per pass of {args.repeats}")
        for (kind, layer), ms in layer_times(ops, args.repeats).items():
            print(f"  {kind:8} {layer:16} {ms:9.1f}", flush=True)
        if isinstance(wl, Draw):
            print(f"  {'blocks':8} {'max-bits':16} {block_bits(ops):9d}", flush=True)
        for (kind, layer), ms in setup_times(wl, seed).items():
            print(f"  {kind:8} {layer:16} {ms:9.3f}", flush=True)
        print(f"  {'host':8} {'reference-chunk':16} {host_reference():9.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
