"""The worst error of each `dim1` oracle against the exact pairing.

    python3 tools/oracle_errors.py CHECKOUT [--seeds 1..12]

CHECKOUT is the root of a checkout: the program is imported from its `src/`
and the workloads from its `bench/workloads.py`, which is only read (no
bytecode is written).  For each seed the timed `dim1` cases run once.  For
each oracle, the contour sum over the poles and `vp_1d` of d-bar phi, the
error of a case is |oracle - residue_pairing_1d| / max(1, |pairing|), the
measure the benchmark's check applies; the tool prints the worst error over
all seeds, with the case and seed where it occurs.  Seeds are listed one by
one or as ranges, such as `1..12`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def parse_seeds(tokens) -> list:
    """Seed numbers from tokens like "3" and "1..12" (both ends included)."""
    seeds = []
    for token in tokens:
        first, _, last = token.partition("..")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def case_errors(workloads, seed: int):
    """(oracle, relative error, case name) for both oracles on each of one
    seed's cases."""
    _, runs = workloads.run_cases(workloads.WORKLOADS["dim1"](seed).cases)
    for run in runs:
        if run.error is not None:
            raise SystemExit(f"dim1 seed {seed}: {run.case.name} raised {run.error!r}")
        exact = run.outputs["exact"]
        contours, vp = run.outputs["oracle"]
        scale = max(1.0, abs(exact))
        yield "contour", abs(sum(c.value for c in contours) - exact) / scale, run.case.name
        yield "vp", abs(vp.value - exact) / scale, run.case.name


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--seeds", nargs="+", default=["1..12"])
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads  # the checkout's bench/workloads.py

    seeds = parse_seeds(args.seeds)
    worst = {}
    for seed in seeds:
        for label, err, case in case_errors(workloads, seed):
            if err > worst.get(label, (-1.0,))[0]:
                worst[label] = (err, case, seed)
    for label, (err, case, seed) in worst.items():
        print(f"{label}: worst relative error {err:.3g} over seeds "
              f"{' '.join(map(str, seeds))} ({case}, seed {seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
