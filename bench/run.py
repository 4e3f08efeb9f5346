"""Benchmark of the residuum package.

    python3 bench/run.py --workload {pipeline,forms,dim1} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ./src.  One
process, one thread, one caller in a closed loop: each case starts when the
previous one returns.

--trace 0 repeats timed passes over the workload's cases until the next
pass would overrun --seconds (at least one pass), then runs the probes once,
untimed, and reports the end-to-end metrics: pass_s is the median pass and
setup_s the median set-up, both in seconds at a reference host speed
(see HostSpeed).
--trace 1 runs one untraced pass and the probes, then the same again with
span wrappers installed around the public functions of every residuum
module, and reports the per-layer metrics named in BENCHMARK.json.  Either
way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up is measured in this process and in 2 x SETUP_HALF fresh ones, half
# before the timed passes and half after, so one slow spell of the host
# does not take them all
SETUP_HALF = 5
PROBE_TIMEOUT_S = 120

# Host-speed reference.  On a shared 2-vCPU VM the same code on the same
# inputs ran up to 1.6x slower for spells of 20 s and more, in CPU time as
# in wall time, so no sampling within a run averaged it away.  While the
# timed passes run, a timer interrupts the program every REF_INTERVAL_S of
# wall time to time a fixed loop of exact arithmetic that runs no residuum
# code; the time spent in the interrupt is left out of every measured time.
# The end-to-end seconds are rescaled to a host on which one loop takes
# REF_LOOP_S: seconds * REF_LOOP_S / median loop seconds over the same
# stretch.  The raw pass seconds are printed alongside.
REF_LOOP_N = 500
REF_LOOP_S = 0.004
REF_INTERVAL_S = 0.125
SETUP_REF_SAMPLES = 9

# methods traced besides the public module functions: (module, class, attribute)
TRACED_METHODS = (
    ("polynomials", "MultiPoly", "__mul__"),
    ("ratfn", "RatFn", "__init__"),
    ("forms", "MeroForm", "wedge"),
    ("forms", "MeroForm", "exterior_d"),
    ("bump", "BumpFunction", "dz"),
    ("bump", "BumpFunction", "eval_numeric"),
)
PROGRAM_MODULES = ("scalars", "polynomials", "ratfn", "forms", "bump", "quadrature",
                   "decomposition", "leray", "dim1")
GR_CALLS = "scalars.GaussianRational.calls"   # counted, no span: millions per pass
GCD_TERMS, GCD_BITS = "polynomials.gcd.terms_max", "polynomials.gcd.bits_max"
EVAL_POINTS = "bump.BumpFunction.eval_numeric.points"
DESCENT_STEPS = "leray.lower_pole_order.steps"
# a per-layer metric named <span>.<field> is read from the spans of <span>
SPAN_FIELDS = ("calls", "self_s", "total_s", "raised")
KNOWN_ERRORS = ("NameError", "IrrationalPole")


def ref_loop() -> float:
    """Seconds for one fixed loop of Fraction arithmetic and dict stores."""
    t0 = time.perf_counter()
    x, table = Fraction(1, 3), {}
    for i in range(1, REF_LOOP_N):
        x = x * Fraction(i, i + 2) + Fraction(1, i + 3)
        table[i % 31, i % 7] = x.numerator.bit_length()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_samples) -> float:
    return seconds * REF_LOOP_S / statistics.median(ref_samples)


class HostSpeed:
    """While entered, a SIGALRM handler times ref_loop every REF_INTERVAL_S
    of wall time and appends the seconds to `samples`.  `clock()` is
    perf_counter minus the time spent in the handler."""

    def __init__(self):
        self.samples: list = []
        self.stolen = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(ref_loop())
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def import_program():
    """Import residuum from the checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "residuum" / "ratfn.py").is_file():
        raise SystemExit(f"bench: no residuum sources under {src}")
    sys.path.insert(0, str(src))
    import residuum.ratfn
    if Path(residuum.ratfn.__file__).resolve().parent != src / "residuum":
        raise SystemExit(f"bench: residuum imported from {residuum.ratfn.__file__}, not {src}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and build the inputs; print the set-up time")
    return ap.parse_args(argv)


def setup_probe_times(args, n: int, digest: str) -> list:
    """Set-up time, rescaled, measured in `n` fresh interpreters, one after
    another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["inputs"] != digest:
            raise SystemExit("bench: set-up probes built different inputs")
        out.append(probe["setup_s"])
    return out


def classify(runs, totals):
    for run in runs:
        totals["attempted"] += 1
        if run.known:
            totals["known"] += 1
            totals["raised." + type(run.error).__name__] += 1
        elif run.error is not None:
            totals["failed"] += 1
            totals["raised." + type(run.error).__name__] += 1
            print(f"FAIL {run.case.name} [{run.error_stage}]: "
                  f"{type(run.error).__name__}: {run.error}")
        elif run.mismatches:
            totals["failed"] += 1
            for m in run.mismatches:
                print(f"WRONG {run.case.name}: {m}")


def report_known(probe_runs):
    for run in probe_runs:
        if run.known:
            print(f"known defect {run.case.name} [{run.error_stage}]: "
                  f"{type(run.error).__name__}: {str(run.error)[:100]}")
        elif run.ok and run.case.known_defect:
            print(f"probe {run.case.name}: did not raise "
                  f"{run.case.known_defect}; output checked")


def _attempts(runs, stage):
    return [r for r in runs if any(s == stage for s, _ in r.case.stages)]


def stage_table(wl, pass_runs, probe_runs):
    """Per stage: untraced seconds in successful calls and successes out of
    attempts (last pass plus probes).  The seconds are the median over the
    timed passes; a stage that only probes run (pipeline's residue) takes
    them from the probe run."""
    rows = {}
    for stage in wl.stage_names:
        timed = bool(_attempts(pass_runs[-1], stage))
        source = pass_runs if timed else [probe_runs]
        secs = statistics.median(sum(r.times.get(stage, 0.0) for r in runs) for runs in source)
        attempts = _attempts(pass_runs[-1] + probe_runs, stage)
        ok = sum(stage in r.times for r in attempts)
        rows[stage] = (secs, ok, len(attempts))
        value = f"{secs:.4f} s in {'timed passes' if timed else 'probes'}" if secs else "absent"
        print(f"stage {stage}: {value} ({ok}/{len(attempts)} calls succeeded)")
    return rows


def all_stage_names():
    import workloads
    return {s for w in workloads.WORKLOADS.values() for s in w.stage_names}


def program_modules():
    return [importlib.import_module("residuum." + m) for m in PROGRAM_MODULES]


def per_layer_metrics(tracer, untraced_wall, traced_wall, pass_end, limits, totals, stages):
    selfs = tracer.self_times()
    summary = tracer.summary(selfs)
    values = {**tracer.counters, **tracer.maxima}
    values["dim1.converged_frac"] = (sum(1 for r in limits if r.converged) / len(limits)
                                     if limits else 0.0)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    for err in KNOWN_ERRORS:
        values[f"raised.{err}"] = totals[f"raised.{err}"]
    values["failed_frac"] = (totals["failed"] + totals["known"]) / totals["attempted"]
    for stage in all_stage_names():
        secs, ok, _ = stages.get(stage, (0.0, 0, 0))
        values[f"{stage}_s"], values[f"{stage}.ok"] = secs, ok

    metrics = {}
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = m["name"]
        span_name, _, field = name.rpartition(".")
        if name in values:
            value = values[name]
        elif field in SPAN_FIELDS and span_name in tracer.names:
            value = summary.get(span_name, {}).get(field, 0)
        else:
            raise SystemExit(f"bench: nothing measures per-layer metric {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}

    # bookkeeping: self times of the traced pass plus what no span covers
    self_sum = sum(selfs[:pass_end])
    remainder = traced_wall - tracer.root_time(0, pass_end)
    print(f"trace: {pass_end} spans in the traced pass; self times {self_sum:.4f} s "
          f"+ unwrapped remainder {remainder:.4f} s = {self_sum + remainder:.4f} s; "
          f"traced pass {traced_wall:.4f} s; untraced pass {untraced_wall:.4f} s")
    top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    for name, row in top:
        print(f"  self {row['self_s']:9.4f} s  total {row['total_s']:9.4f} s  "
              f"calls {row['calls']:9d}  {name}")
    return metrics


def make_tracer():
    import spans

    def gcd_sizes(tracer, args):
        terms = bits = 0
        for p in args[:2]:
            terms = max(terms, len(p.terms))
            for c in p.terms.values():
                bits = max(bits, c.re.numerator.bit_length(), c.re.denominator.bit_length(),
                           c.im.numerator.bit_length(), c.im.denominator.bit_length())
        mx = tracer.maxima
        mx[GCD_TERMS] = max(mx[GCD_TERMS], terms)
        mx[GCD_BITS] = max(mx[GCD_BITS], bits)

    def points(tracer, result):
        tracer.counters[EVAL_POINTS] += int(result.size)

    def steps(tracer, result):
        tracer.counters[DESCENT_STEPS] += len(result.r_terms)

    tracer = spans.Tracer(
        program_modules(),
        methods=[(importlib.import_module("residuum." + m), c, a)
                 for m, c, a in TRACED_METHODS],
        counted=[(importlib.import_module("residuum.scalars"), "GaussianRational",
                  "__init__", GR_CALLS)],
        call_hooks={"polynomials.gcd": gcd_sizes},
        result_hooks={"bump.BumpFunction.eval_numeric": points,
                      "leray.lower_pole_order": steps})
    tracer.counters.update({GR_CALLS: 0, EVAL_POINTS: 0, DESCENT_STEPS: 0})
    tracer.maxima.update({GCD_TERMS: 0, GCD_BITS: 0})
    return tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    setup_s = scaled(setup_s, [ref_loop() for _ in range(SETUP_REF_SAMPLES)])
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "inputs": wl.inputs_digest()}))
        return 0

    print(f"workload {wl.name} seed {args.seed}: {len(wl.cases)} timed cases, "
          f"{len(wl.probes)} probes, inputs {wl.inputs_digest()}")
    totals = defaultdict(int)

    if args.trace == 0:
        setups = [setup_s] + setup_probe_times(args, SETUP_HALF, wl.inputs_digest())
        walls, scaled_walls, pass_runs = [], [], []
        start = time.perf_counter()
        with HostSpeed() as host:
            while True:
                first = len(host.samples)
                wall, runs = workloads.run_cases(wl.cases, clock=host.clock)
                host.sample()   # at least one sample per pass
                walls.append(wall)
                scaled_walls.append(scaled(wall, host.samples[first:]))
                workloads.check_runs(runs)
                classify(runs, totals)
                for run in runs:   # keep case and times only: peak RSS must not grow with passes
                    run.outputs = {}
                pass_runs.append(runs)
                if time.perf_counter() - start + wall > args.seconds:
                    break
        _, probe_runs = workloads.run_cases(wl.probes)
        workloads.check_runs(probe_runs)
        classify(probe_runs, totals)
        report_known(probe_runs)
        stage_table(wl, pass_runs, probe_runs)
        setups += setup_probe_times(args, SETUP_HALF, wl.inputs_digest())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        refs = host.samples
        print(f"passes {len(walls)}, raw: " + " ".join(f"{w:.4f}" for w in walls) + " s; "
              "rescaled: " + " ".join(f"{w:.4f}" for w in scaled_walls) + " s; "
              f"{len(refs)} reference loops, {min(refs) * 1e3:.3f} to {max(refs) * 1e3:.3f} ms, "
              f"median {statistics.median(refs) * 1e3:.3f} ms")
        print("set-up samples, rescaled: " + " ".join(f"{s:.4f}" for s in setups) + " s")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(scaled_walls), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    else:
        # stage times come from the untraced pass and probes, spans from the traced ones
        untraced_wall, untraced_runs = workloads.run_cases(wl.cases)
        _, probe_runs = workloads.run_cases(wl.probes)
        tracer = make_tracer()
        with tracer.installed():
            traced_wall, traced_runs = workloads.run_cases(wl.cases, span=tracer.span)
            pass_end = len(tracer)
            _, traced_probes = workloads.run_cases(wl.probes, span=tracer.span)
        for runs in (untraced_runs, probe_runs, traced_runs, traced_probes):
            workloads.check_runs(runs)
            classify(runs, totals)
        report_known(probe_runs)
        stages = stage_table(wl, [untraced_runs], probe_runs)
        limits = workloads.limit_results(traced_runs + traced_probes)
        metrics = per_layer_metrics(tracer, untraced_wall, traced_wall, pass_end, limits,
                                    totals, stages)
        out = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")

    failed = totals["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": totals["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
