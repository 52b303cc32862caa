"""SHA-256 digests of the verify reports of the benchmark's instances.

    python3 tools/report_digest.py                     # sweep, structure 1-3; deep 1
    python3 tools/report_digest.py sweep:1 deep:2      # chosen workload:seed pairs

For each (workload, seed) the instances are those of bench/run.py
(`WORKLOADS`, `build_ops`, imported read-only, never run). Every op's
`run_verify_suite(...).to_dict()` is written as JSON with sorted keys and
hashed; one line per op, then one combined digest of the op digests. Two
checkouts that print the same lines give byte-identical reports on those
instances. Stdlib only; no file is written. Run it from the root of a
checkout; the program is imported from `src/` next to `bench/`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # the imports below leave no __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run as bench  # noqa: E402  (bench/run.py puts src/ on the path)

from askeycg.cli import run_verify_suite  # noqa: E402

DEFAULT = ("sweep:1", "sweep:2", "sweep:3", "structure:1", "structure:2", "structure:3",
           "deep:1")


def report_digest(inst, checks=None) -> str:
    """The SHA-256 of one verify report as sorted-key JSON."""
    doc = run_verify_suite(inst, list(checks) if checks else None).to_dict()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def combined(digests) -> str:
    """One SHA-256 over a list of digests, in order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def main(argv=None) -> int:
    for pair in (argv if argv is not None else sys.argv[1:]) or DEFAULT:
        name, _, seed = pair.partition(":")
        seed = int(seed or 1)
        ops, _ = bench.build_ops(bench.WORKLOADS[name], seed)
        digests = []
        for op in ops:
            digests.append(report_digest(op.inst, op.checks))
            print(f"{name} seed={seed} op={op.index} {op.family} {digests[-1]}")
        print(f"{name} seed={seed} combined {combined(digests)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
