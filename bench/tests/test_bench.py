"""Tests of the benchmark's own code: tracer installation, self-time
derivation and seeded input generation.

    python3 -m pytest bench/tests -q
"""

import inspect
import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from residuum import decomposition, leray, polynomials, ratfn  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PROGRAM = run.program_modules()


def bindings():
    """Every module-level function binding and class attribute of the program."""
    out = {}
    for mod in PROGRAM:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    return out


def test_traced_run_patches_every_binding_and_restores_them():
    before = bindings()
    tracer = run.make_tracer()
    with tracer.installed():
        assert polynomials.gcd is not before[("residuum.polynomials", "gcd")]
        assert ratfn.gcd is polynomials.gcd  # imported name rebound to the same wrapper
        assert decomposition.resultant is polynomials.resultant
        assert leray.exact_divide is polynomials.exact_divide
        mul = vars(polynomials.MultiPoly)["__mul__"]
        assert vars(polynomials.MultiPoly)["__rmul__"] is mul
        assert mul.__wrapped__ is before[("residuum.polynomials", "MultiPoly", "__mul__")]
        z = polynomials.MultiPoly.variable(2, 0)
        ratfn.RatFn(z * z, z)
    assert bindings() == before
    summary = tracer.summary()
    assert summary["ratfn.RatFn.init"]["calls"] == 1
    assert summary["polynomials.gcd"]["calls"] >= 1
    assert summary["polynomials.MultiPoly.mul"]["calls"] >= 1
    assert tracer.counters[run.GR_CALLS] > 0
    assert tracer.maxima["polynomials.gcd.terms_max"] == 1


def test_uninstall_after_exception_restores_bindings():
    before = bindings()
    tracer = run.make_tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            ratfn.RatFn(polynomials.MultiPoly.const(1, 1), polynomials.MultiPoly.zero(1))
    assert bindings() == before
    assert tracer.summary()["ratfn.RatFn.init"]["raised"] == 1


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("untraced run installed a tracer")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    before = bindings()
    assert run.main(["--workload", "dim1", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    assert bindings() == before
    assert not any("Tracer." in getattr(v, "__qualname__", "") for v in before.values())
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert last["metrics"].keys() == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "dim1", "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert last["metrics"]["raised.IrrationalPole"]["value"] >= 6
    assert last["metrics"]["dim1.vp_1d.calls"]["value"] > 0


def test_host_speed_clock_leaves_out_the_reference_loops():
    previous = signal.getsignal(signal.SIGALRM)
    with run.HostSpeed() as host:
        c0, t0, first = host.clock(), time.perf_counter(), len(host.samples)
        while len(host.samples) < first + 3:
            sum(range(1000))
        c1, t1 = host.clock(), time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    left_out = (t1 - t0) - (c1 - c0)
    assert left_out >= 0.9 * sum(host.samples[first:])
    assert c1 - c0 > 0


def synthetic(spans_list):
    """A tracer holding (name, parent, start, end) spans, without recording."""
    tr = spans.Tracer([])
    for name, parent, start, end in spans_list:
        tr.name.append(tr._name_id(name))
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
        tr.outer.append(1)
        tr.raised.append(0)
    return tr


def test_self_time_is_duration_minus_child_coverage():
    tr = synthetic([
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 0, 3.0, 6.0),     # overlaps a: coverage counts [3, 4] once
        ("c", 1, 2.0, 3.0),
        ("d", 0, 9.0, 12.0),    # runs past its parent: clipped at 10
    ])
    assert tr.self_times() == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    summary = tr.summary()
    assert summary["root"]["self_s"] == pytest.approx(4.0)
    assert summary["a"]["total_s"] == pytest.approx(3.0)
    assert tr.root_time() == pytest.approx(10.0)


def test_recorded_spans_nest_and_count_recursion_once():
    ticks = iter(range(100))
    tr = spans.Tracer([], clock=lambda: float(next(ticks)))

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tr.wrap("fact", fact)
    with tr.span("root"):
        assert traced(3) == 6
    summary = tr.summary()
    assert summary["fact"]["calls"] == 3
    # root opens at t=0; fact(3) spans [1, 6]; its recursion [2, 5] and [3, 4]
    assert summary["fact"]["total_s"] == pytest.approx(5.0)
    assert summary["fact"]["self_s"] == pytest.approx(5.0)
    assert summary["root"]["self_s"] == pytest.approx(7.0 - 5.0)
    assert sum(tr.self_times()) == pytest.approx(tr.root_time())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name]
    assert make(11).inputs_digest() == make(11).inputs_digest()
    assert make(11).inputs_digest() != make(12).inputs_digest()
