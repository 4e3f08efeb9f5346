"""The evidence tools: `tools/bench_pairs.summary`, which turns paired runs
into the medians, quartiles and pair counts of a BENCH_*.json, and
`tools/stage_digests.run_digest`, which hashes a workload's outputs."""

import importlib.util
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
