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
end-to-end cost of a pass.
Stdlib only; no file is written. Run it from the root of a checkout; the
program is imported from `src/` next to `bench/`.
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


def main(argv=None) -> int:
    for pair in (argv if argv is not None else sys.argv[1:]) or DEFAULT:
        name, _, seed = pair.partition(":")
        seed = int(seed or 1)
        ops, _ = bench.build_ops(bench.WORKLOADS[name], seed)
        print(f"{name} seed={seed}: {len(ops)} ops, median CPU ms per pass of {REPEATS}")
        for (kind, layer), ms in layer_times(ops).items():
            print(f"  {kind:8} {layer:16} {ms:9.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
