"""One sha256 per (workload, seed) over everything the benchmark's cases and
probes return, to show that a change leaves the program's outputs
byte-identical.

    python3 tools/stage_digests.py CHECKOUT [--seeds 5 7] [--workloads pipeline forms dim1]

CHECKOUT is the root of a checkout: the program is imported from its `src/`
and the workloads from its `bench/workloads.py`, which is only read (no
bytecode is written).  For each workload and seed the cases run once, then
the probes, as `bench/run.py` runs them, and every run is checked.  The
digest covers, in run order, each case's name, the repr of every stage
output, the failing stage and the repr of the error it raised, and the
mismatch list.  Run it on two checkouts and compare the lines; the exit
status is 1 when a repr holds a memory address, which no digest can match.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def run_digest(workloads, name: str, seed: int) -> str:
    wl = workloads.WORKLOADS[name](seed)
    h = hashlib.sha256()
    for cases in (wl.cases, wl.probes):
        _, runs = workloads.run_cases(cases)
        workloads.check_runs(runs)
        for run in runs:
            parts = [run.case.name]
            parts += [f"{stage}={out!r}" for stage, out in run.outputs.items()]
            parts.append(f"error@{run.error_stage}={run.error!r}")
            parts.append(f"mismatches={run.mismatches!r}")
            text = "\n".join(parts)
            if " at 0x" in text:
                raise SystemExit(f"{name} seed {seed}: {run.case.name} has an "
                                 "address in a repr, which no digest can match")
            h.update(text.encode())
            h.update(b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 7])
    ap.add_argument("--workloads", nargs="+", default=["pipeline", "forms", "dim1"])
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads  # the checkout's bench/workloads.py

    for name in args.workloads:
        for seed in args.seeds:
            print(f"{name} seed {seed} {run_digest(workloads, name, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
