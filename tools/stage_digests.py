"""One sha256 per (workload, seed, stage) over what the benchmark's cases
and probes return, and one over their errors and mismatch lists, to show
that a change leaves the program's outputs byte-identical, or which stage
it moved.

    python3 tools/stage_digests.py CHECKOUT [--seeds 5 7] [--workloads pipeline forms dim1]

CHECKOUT is the root of a checkout: the program is imported from its `src/`
and the workloads from its `bench/workloads.py`, which is only read (no
bytecode is written).  For each workload and seed the cases run once, then
the probes, as `bench/run.py` runs them, and every run is checked.  A
stage's digest covers, in run order, the name of each case that reached
the stage and the repr of its output; the `errors` digest covers each
case's name, failing stage, the repr of the error it raised and its
mismatch list.  Each digest is one line, `WORKLOAD seed SEED STAGE SHA`,
the stages in the order the runs first reach them and `errors` last.  Run
it on two checkouts and compare the lines; the exit status is 1 when a
repr holds a memory address, which no digest can match.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def run_digests(workloads, name: str, seed: int) -> dict:
    """{stage: sha256 hex} for one workload and seed, then "errors"."""
    wl = workloads.WORKLOADS[name](seed)
    hashes, errors = {}, hashlib.sha256()
    for cases in (wl.cases, wl.probes):
        _, runs = workloads.run_cases(cases)
        workloads.check_runs(runs)
        for run in runs:
            texts = [(hashes.setdefault(stage, hashlib.sha256()), f"{run.case.name}\n{out!r}")
                     for stage, out in run.outputs.items()]
            texts.append((errors, f"{run.case.name}\nerror@{run.error_stage}={run.error!r}\n"
                                  f"mismatches={run.mismatches!r}"))
            for h, text in texts:
                if " at 0x" in text:
                    raise SystemExit(f"{name} seed {seed}: {run.case.name} has an "
                                     "address in a repr, which no digest can match")
                h.update(text.encode())
                h.update(b"\0")
    return {**{stage: h.hexdigest() for stage, h in hashes.items()},
            "errors": errors.hexdigest()}


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
            for stage, digest in run_digests(workloads, name, seed).items():
                print(f"{name} seed {seed} {stage} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
