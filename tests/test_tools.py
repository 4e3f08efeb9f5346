"""The evidence tools: `tools/bench_pairs.summary`, which turns paired runs
into the medians, quartiles and pair counts of a BENCH_*.json;
`tools/bench_pairs.timed_passes` and `raw_medians`, which read each run's
number of timed passes, raw pass time and reference loop;
`tools/bench_pairs.main`, which records both checkouts' stage
digests and traced per-layer metrics; `tools/stage_digests.run_digest`, which hashes a workload's
outputs; and `tools/oracle_errors.py`, which reports the `dim1` oracles'
worst errors."""

import importlib.util
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(f"_tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
stage_digests = _tool("stage_digests")
oracle_errors = _tool("oracle_errors")


class TestSummary:
    PARENT = [1.0, 2.0, 3.0, 4.0, 5.0]
    CHANGE = [1.0, 1.5, 3.0, 4.5, 2.0]  # ties in pairs 1 and 3

    def test_fixed_numbers(self):
        s = bench_pairs.summary(self.PARENT, self.CHANGE)
        assert s["parent_median"] == 3.0
        assert s["change_median"] == 2.0
        # inclusive quartiles interpolate between the order statistics:
        # sorted change 1, 1.5, 2, 3, 4.5 has q1 at index 1 and q3 at index 3
        assert s["parent_q1_q3"] == [2.0, 4.0]
        assert s["change_q1_q3"] == [1.5, 3.0]
        assert s["change_over_parent"] == 0.6667
        assert s["parent_runs"] == self.PARENT
        assert s["change_runs"] == self.CHANGE

    def test_ties_count_for_neither_side(self):
        lower = bench_pairs.summary(self.PARENT, self.CHANGE)["change_lower_in_pairs"]
        higher = bench_pairs.summary(self.CHANGE, self.PARENT)["change_lower_in_pairs"]
        assert (lower, higher) == (2, 1)

    def test_even_count_median_and_rounding(self):
        s = bench_pairs.summary([0.1, 0.2, 0.3, 0.4], [0.123456, 0.2, 0.3, 0.4])
        assert s["parent_median"] == 0.25
        assert s["parent_q1_q3"] == [0.175, 0.325]
        assert s["change_runs"][0] == 0.1235
        assert s["change_lower_in_pairs"] == 0


class TestTimedPasses:
    STDOUT = ("workload pipeline seed 5: 14 timed cases, 13 probes, inputs 0123abcd\n"
              "stage charts: 0.0123 s in timed passes (14/14 calls succeeded)\n"
              "passes 36, raw: 0.0410 0.0402 s; rescaled: 0.0400 0.0399 s; 72 reference "
              "loops, 1.000 to 1.100 ms, median 1.050 ms\n"
              "set-up samples, rescaled: 0.1000 0.1100 s\n"
              '{"correct": true, "attempted": 14, "failed": 0, "metrics": {}}\n')

    def test_parsed_from_the_passes_line(self):
        assert bench_pairs.timed_passes(self.STDOUT) == 36

    def test_none_without_a_passes_line(self):
        # a traced run (--trace 1) prints no passes line
        stdout = self.STDOUT.replace("passes 36", "spans 36")
        assert bench_pairs.timed_passes(stdout) is None
        assert bench_pairs.raw_medians(stdout) is None

    def test_raw_and_reference_medians(self):
        # the median of the raw (not the rescaled) times, and the loop median
        raw, ref = bench_pairs.raw_medians(self.STDOUT)
        assert raw == pytest.approx(0.0406) and ref == 1.05

    def test_recorded_per_run_and_workload(self, tmp_path, monkeypatch):
        out = _fake_main(tmp_path, monkeypatch, {"parent": "d", "change": "d"})
        block = out["workloads"]["w"]
        assert block["parent_passes"] == [10, 10, 10]
        assert block["change_passes"] == [20, 20, 20]

    def test_raw_times_summarised_beside_pass_s(self, tmp_path, monkeypatch):
        out = _fake_main(tmp_path, monkeypatch, {"parent": "d", "change": "d"})
        block = out["workloads"]["w"]
        assert block["raw_pass_s"]["parent_runs"] == [0.2, 0.2, 0.2]
        assert block["raw_pass_s"]["change_runs"] == [0.1, 0.1, 0.1]
        assert block["ref_loop_ms"]["parent_median"] == 1.0
        # neither is bound-checked: the change's loop reads twice the
        # parent's, and nothing is beyond bound
        assert block["ref_loop_ms"]["change_over_parent"] == 2.0
        assert out["beyond_bound"] == []


def _fake_main(tmp_path, monkeypatch, digests):
    """Run `bench_pairs.main` on checkouts `parent` and `change` under
    tmp_path, with `subprocess.run` faked: bench/run.py reports 10 passes in
    the parent and 20 in the change, with raw pass times 1/n to 3/n s
    (median 2/n) and a median reference loop of n/10 ms, or with --trace 1
    no passes line and
    per-layer metrics x.calls (n passes times the seed) and x.total_s, and
    tools/stage_digests.py prints one line per (workload, seed) ending in
    digests[side].  Returns the written JSON and the commands run."""
    passes = {"parent": 10, "change": 20}
    for side in passes:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "pass_s", "better": "lower", "bound": 0.25}]}))
    commands = []

    def fake_run(cmd, cwd=None, **kwargs):
        commands.append(cmd)
        if cmd[1].endswith("stage_digests.py"):
            side = Path(cmd[2]).name
            seeds = cmd[cmd.index("--seeds") + 1:cmd.index("--workloads")]
            return types.SimpleNamespace(stdout="".join(
                f"w seed {s} {digests[side]}\n" for s in seeds))
        n = passes[Path(cwd).name]
        if cmd[cmd.index("--trace") + 1] == "1":
            seed = int(cmd[cmd.index("--seed") + 1])
            metrics = {"x.calls": {"value": n * seed, "unit": "count"},
                       "x.total_s": {"value": 1 / n, "unit": "s"}}
            report = {"correct": True, "failed": 0, "metrics": metrics}
            return types.SimpleNamespace(stdout="trace: ...\n" + json.dumps(report))
        report = {"correct": True, "failed": 0, "metrics": {"pass_s": {"value": 1 / n}}}
        line = (f"passes {n}, raw: {3 / n} {2 / n} {1 / n} s; rescaled: 0.5 0.5 0.5 s; "
                f"{n} reference loops, 1.000 to 2.000 ms, median {n / 10:.3f} ms\n")
        return types.SimpleNamespace(stdout=line + json.dumps(report))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    path = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workloads", "w", "--pairs", "3", "--seed", "1",
                             "--out", str(path)]) == 0
    out = json.loads(path.read_text())
    out["commands"] = commands
    return out


class TestStageDigestsInBench:
    def test_identical_outputs(self, tmp_path, monkeypatch):
        out = _fake_main(tmp_path, monkeypatch, {"parent": "abc", "change": "abc"})
        block = out["stage_digests"]
        assert block["seeds"] == [5, 7]
        assert block["parent"] == block["change"] == ["w seed 5 abc", "w seed 7 abc"]
        assert block["outputs_identical"] is True
        # both checkouts are hashed by the change's tool, once each
        runs = [c for c in out["commands"] if c[1].endswith("stage_digests.py")]
        assert [Path(c[2]).name for c in runs] == ["parent", "change"]
        assert {Path(c[1]).parent.parent.name for c in runs} == {"change"}

    def test_differing_outputs(self, tmp_path, monkeypatch, capsys):
        out = _fake_main(tmp_path, monkeypatch, {"parent": "abc", "change": "abd"})
        assert out["stage_digests"]["outputs_identical"] is False
        assert "OUTPUTS DIFFER" in capsys.readouterr().err


class TestTracedRuns:
    def test_per_layer_metrics_of_both_sides(self, tmp_path, monkeypatch):
        out = _fake_main(tmp_path, monkeypatch, {"parent": "d", "change": "d"})
        traced = out["traced"]
        assert traced["command"] == ("python3 bench/run.py --workload W --seed 5 "
                                     "--seconds 0 --trace 1")
        # seed 5 whatever --seed is (1 here)
        assert traced["w"] == {"x.calls": {"parent": 50, "change": 100},
                               "x.total_s": {"parent": 0.1, "change": 0.05}}

    def test_one_run_per_side_after_the_pairs(self, tmp_path, monkeypatch):
        out = _fake_main(tmp_path, monkeypatch, {"parent": "d", "change": "d"})
        runs = [c for c in out["commands"] if c[1] == "bench/run.py"]
        flags = [c[c.index("--trace") + 1] for c in runs]
        assert flags == ["0"] * 6 + ["1", "1"]
        assert [c[c.index("--seed") + 1] for c in runs[6:]] == ["5", "5"]


def _fake_workloads(outputs):
    """A module with the interface `run_digest` reads: WORKLOADS, run_cases
    and check_runs (here finding no mismatch).  Workload "w" has one case,
    whose one stage returns `outputs[seed]`, and one probe that raises."""

    class W:
        def __init__(self, seed):
            self.cases = [("case", {"stage": outputs[seed]})]
            self.probes = [("probe", {})]

    def run_cases(cases):
        runs = []
        for name, outs in cases:
            run = types.SimpleNamespace(case=types.SimpleNamespace(name=name),
                                        outputs=dict(outs), error=None, error_stage=None,
                                        mismatches=[])
            if not outs:
                run.error, run.error_stage = ValueError("probe"), "stage"
            runs.append(run)
        return 0.0, runs

    return types.SimpleNamespace(WORKLOADS={"w": W}, run_cases=run_cases,
                                 check_runs=lambda runs: None)


class TestRunDigest:
    def test_same_outputs_same_digest(self):
        wl = _fake_workloads({5: (1, "a"), 7: (1, "a"), 9: (2, "a")})
        first = stage_digests.run_digest(wl, "w", 5)
        assert len(first) == 64
        assert stage_digests.run_digest(wl, "w", 5) == first
        assert stage_digests.run_digest(wl, "w", 7) == first
        assert stage_digests.run_digest(wl, "w", 9) != first

    def test_address_in_a_repr_exits(self):
        wl = _fake_workloads({5: object()})
        with pytest.raises(SystemExit, match="address"):
            stage_digests.run_digest(wl, "w", 5)


class TestOracleErrors:
    def test_seed_ranges(self):
        assert oracle_errors.parse_seeds(["1..3", "7"]) == [1, 2, 3, 7]

    def test_one_seed_of_this_checkout(self):
        proc = subprocess.run([sys.executable, str(TOOLS / "oracle_errors.py"),
                               str(TOOLS.parent), "--seeds", "1"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        worst = dict(re.findall(r"^(\w+): worst relative error (\S+) over seeds 1 ",
                                proc.stdout, re.M))
        assert worst.keys() == {"contour", "vp"}
        assert float(worst["contour"]) <= 1e-6 and float(worst["vp"]) <= 1e-9
