"""CPU time of each verify-run artifact and each named check, per workload.

    python3 tools/layer_times.py                       # structure and sweep, seed 1
    python3 tools/layer_times.py structure:2 deep:1    # chosen workload:seed pairs

For each (workload, seed) the instances are those of bench/run.py
(`WORKLOADS`, `build_ops`, imported read-only, never run). One pass times,
for every op on a fresh `cgverify.Run`, each artifact as it is first built,
in dependency order (factors, contiguity, delta, bands, blocks,
eigenvalues), then each check the op selects and does not skip, on those
warm artifacts; it sums each line over the ops. After one untimed warm-up
pass, REPEATS passes are timed and the median CPU milliseconds of each line
are printed. The `verify` line is the same ops through `run_verify_suite`
on cold runs, which build only the artifacts their checks read: the
end-to-end cost of a pass. Two `setup` lines follow, each the median CPU
milliseconds of bench.SETUP_REPEATS in-process builds of the workload
(`build_ops`, what the benchmark's setup_s times): the whole build, then the
`families.make_instance` calls inside it, timed on builds of their own so
that the timing wrapper's cost reaches neither line.
Stdlib only; no file is written. The program is imported from the `src/`
of the checkout that holds this file, whatever the working directory: to
time another checkout, run that checkout's own copy of the tool.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import process_time

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # the imports below leave no __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run as bench  # noqa: E402  (bench/run.py puts src/ on the path)

from askeycg import cli  # noqa: E402
from askeycg.cgverify import Run  # noqa: E402

DEFAULT = ("structure:1", "sweep:1")
ARTIFACTS = ("factors", "contiguity", "delta", "bands", "blocks", "eigenvalues")
REPEATS = 5


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
    """Median CPU milliseconds of `repeats` builds of the workload's ops
    (bench.build_ops), and of the make_instance calls of each of `repeats`
    more builds, summed per build."""
    builds, instances, spent = [], [], [0.0]
    for _ in range(repeats):
        t0 = process_time()
        bench.build_ops(wl, seed)
        builds.append(process_time() - t0)
    original = bench.families.make_instance

    def timed(*args, **kwargs):
        t0 = process_time()
        try:
            return original(*args, **kwargs)
        finally:
            spent[0] += process_time() - t0

    bench.families.make_instance = timed
    try:
        for _ in range(repeats):
            spent[0] = 0.0
            bench.build_ops(wl, seed)
            instances.append(spent[0])
    finally:
        bench.families.make_instance = original
    return {("setup", "build_ops"): 1000 * statistics.median(builds),
            ("setup", "make_instance"): 1000 * statistics.median(instances)}


def main(argv=None) -> int:
    for pair in (argv if argv is not None else sys.argv[1:]) or DEFAULT:
        name, _, seed = pair.partition(":")
        seed = int(seed or 1)
        ops, _ = bench.build_ops(bench.WORKLOADS[name], seed)
        print(f"{name} seed={seed}: {len(ops)} ops, median CPU ms per pass of {REPEATS}")
        for (kind, layer), ms in layer_times(ops).items():
            print(f"  {kind:8} {layer:16} {ms:9.1f}", flush=True)
        for (kind, layer), ms in setup_times(bench.WORKLOADS[name], seed).items():
            print(f"  {kind:8} {layer:16} {ms:9.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
