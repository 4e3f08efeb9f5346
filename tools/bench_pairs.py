"""Alternating parent/change runs of the benchmark, summarised as a
BENCH_*.json.

    python3 tools/bench_pairs.py PARENT CHANGE [--workloads pipeline forms dim1]
        [--pairs 10] [--seed S] [--seconds 25] [--claim WORKLOAD.METRIC]
        [--description TEXT] [--host TEXT] [--extra NOTES.json] --out BENCH_<n>.json

PARENT and CHANGE are roots of two checkouts.  For each workload, pair i
runs `python3 bench/run.py --workload W --seed S --seconds T` once in each
checkout, one process at a time, the parent first in odd pairs (1, 3, ...)
and the change first in even ones, so a slow spell of the host does not
fall on one side only.  Each run's last line of output is its JSON report,
and its `passes N, raw: ... s; rescaled: ...; ... median M ms` line gives
the number of timed passes, the raw pass times and the median reference
loop.

For every end-to-end metric of the change's BENCHMARK.json the output
holds, per workload, the median and the inclusive quartiles of each side,
all runs in pair order, change_over_parent (ratio of medians) and
change_lower_in_pairs (pairs where the change read lower); each run's
number of timed passes (parent_passes, change_passes), against which to
read peak_rss_mb, since run.py keeps every pass's case runs; raw_pass_s,
the median raw (unrescaled) pass time of each run, and ref_loop_ms, its
median reference loop, summarised as the metrics are but not checked
against a bound, so that a move of pass_s can be split into one of the
program and one of the host-speed rescaling; and whether every run was
correct.  A metric whose change median is worse than the
parent's by more than its bound is listed under beyond_bound and printed;
the exit status is then 1.  --claim names the metric a change claims to
improve; its block gives the pairs won, the gap of the medians and the
parent's interquartile range.  --extra copies the keys of a JSON object
(trace counts, say) into the output unchanged.

Before the timed runs, the change's `tools/stage_digests.py` hashes the
outputs of both checkouts at seeds 5 and 7, for the same workloads;
its lines for each side and `outputs_identical`, whether they agree, go
under `stage_digests`, and a difference is printed.

After each workload's pairs, each checkout makes one traced run,
`bench/run.py --trace 1`, at seed 5 whatever --seed is, so that traced
counts read the same inputs in every BENCH file.  Every per-layer metric
it reports goes under `traced`, per workload, as {"parent": value,
"change": value}.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True,
                          timeout=4 * seconds + 600)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["passes"] = timed_passes(proc.stdout)
    report["raw"] = raw_medians(proc.stdout)
    return report


DIGEST_SEEDS = [5, 7]  # the seeds tools/stage_digests.py defaults to
TRACE_SEED = 5         # the seed of the traced runs


def stage_digests(tool: Path, checkout: Path, seeds: list, workloads: list) -> list:
    """The lines `tool` (tools/stage_digests.py) prints for `checkout`."""
    cmd = [sys.executable, str(tool), str(checkout), "--seeds", *map(str, seeds),
           "--workloads", *workloads]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=3600)
    return proc.stdout.strip().splitlines()


def timed_passes(stdout: str) -> int | None:
    """N from run.py's `passes N, raw: ...` line; None when there is none."""
    m = re.search(r"^passes (\d+),", stdout, re.MULTILINE)
    return int(m.group(1)) if m else None


def raw_medians(stdout: str) -> tuple | None:
    """(median raw pass time in s, median reference loop in ms) from run.py's
    `passes N, raw: ... s; ... median M ms` line; None when there is none."""
    m = re.search(r"^passes \d+, raw: ([^;]*) s;.* median (\S+) ms$", stdout, re.MULTILINE)
    if not m:
        return None
    return statistics.median(map(float, m.group(1).split())), float(m.group(2))


def summary(parent: list, change: list) -> dict:
    def quartiles(xs):
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return [round(q1, 4), round(q3, 4)]

    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent_median": round(p_med, 4),
        "parent_q1_q3": quartiles(parent),
        "change_median": round(c_med, 4),
        "change_q1_q3": quartiles(change),
        "change_over_parent": round(c_med / p_med, 4),
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "parent_runs": [round(x, 4) for x in parent],
        "change_runs": [round(x, 4) for x in change],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", nargs="+", default=["pipeline", "forms", "dim1"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--claim", help="WORKLOAD.METRIC the change claims to improve")
    ap.add_argument("--description", default="", help="one line on what the change does")
    ap.add_argument("--host", default="", help="the machine the runs took place on")
    ap.add_argument("--extra", type=Path, help="JSON object whose keys are copied")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    out = {
        "change": args.description,
        "command": "python3 bench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g}",
        "host": args.host,
        "design": f"{args.pairs} pairs per workload, parent and change alternating which "
                  "runs first (parent first in odd pairs), one process at a time; "
                  f"seed {args.seed}",
        "run_seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": [args.seed],
        "claim": None,
        "workloads": {},
        "traced": {"command": "python3 bench/run.py --workload W --seed "
                              f"{TRACE_SEED} --seconds 0 --trace 1"},
    }
    tool = sides["change"] / "tools" / "stage_digests.py"
    digests = {side: stage_digests(tool, root, DIGEST_SEEDS, args.workloads)
               for side, root in sides.items()}
    identical = digests["parent"] == digests["change"]
    out["stage_digests"] = {"seeds": DIGEST_SEEDS, **digests,
                            "outputs_identical": identical}
    if not identical:
        print("OUTPUTS DIFFER: stage digests of parent and change disagree", file=sys.stderr)
    beyond = []
    for wl in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                report = run_once(sides[side], wl, args.seed, args.seconds)
                runs[side].append(report)
                print(f"{wl} pair {i + 1} {side}: " + ", ".join(
                    f"{m['name']} {report['metrics'][m['name']]['value']:.4f}"
                    for m in metrics) + f", passes {report['passes']}, raw pass "
                    f"{report['raw'][0]:.4f} s, reference loop {report['raw'][1]:.3f} ms",
                    file=sys.stderr, flush=True)
        block = {}
        for m in metrics:
            name = m["name"]
            block[name] = summary(*([r["metrics"][name]["value"] for r in runs[side]]
                                    for side in ("parent", "change")))
            ratio = block[name]["change_over_parent"]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if worse > m["bound"]:
                beyond.append(f"{wl} {name}: change/parent {ratio} beyond bound {m['bound']}")
        for i, name in enumerate(("raw_pass_s", "ref_loop_ms")):
            block[name] = summary(*([r["raw"][i] for r in runs[side]]
                                    for side in ("parent", "change")))
        for side in ("parent", "change"):
            block[f"{side}_passes"] = [r["passes"] for r in runs[side]]
        block["all_runs_correct"] = all(r["correct"] for side in runs.values() for r in side)
        block["failed"] = sum(r["failed"] for side in runs.values() for r in side)
        out["workloads"][wl] = block
        traced = {side: run_once(root, wl, TRACE_SEED, 0, trace=1)["metrics"]
                  for side, root in sides.items()}
        out["traced"][wl] = {name: {side: traced[side][name]["value"] for side in traced}
                             for name in traced["change"] if name in traced["parent"]}
    if args.claim:
        wl, _, name = args.claim.partition(".")
        s = out["workloads"][wl][name]
        q1, q3 = s["parent_q1_q3"]
        out["claim"] = {
            "workload": wl,
            "metric": name,
            "parent_over_change": round(s["parent_median"] / s["change_median"], 4),
            "change_lower_in_pairs": s["change_lower_in_pairs"],
            "median_gap": round(abs(s["parent_median"] - s["change_median"]), 4),
            "parent_iqr": round(q3 - q1, 4),
        }
    out["beyond_bound"] = beyond
    if args.extra:
        out.update(json.loads(args.extra.read_text()))
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    for line in beyond:
        print("BEYOND BOUND " + line, file=sys.stderr)
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
