"""Fast checks of the benchmark harness itself.

Run from the repository root: python3 -m pytest -q bench/test_harness.py
"""

import math
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
from oracle import Verdict  # noqa: E402
from tracing import Tracer, layer_metric_names  # noqa: E402
from workloads import Op, Workload  # noqa: E402


def _span(tr: Tracer, name: str, start: float, end: float, parent: int,
          op: int = 0) -> int:
    tr.start.append(start)
    tr.end.append(end)
    tr.name.append(tr._name_id(name))
    tr.parent.append(parent)
    tr.op.append(op)
    return len(tr.start) - 1


def test_self_time_subtracts_direct_children_only():
    tr = Tracer()
    top = _span(tr, "criteria.C4", 0.0, 10.0, -1)
    mid = _span(tr, "symfunc.integral", 2.0, 5.0, top)
    _span(tr, "symfunc.quad", 3.0, 4.0, mid)
    _span(tr, "symfunc.quad", 6.0, 7.0, top)
    assert tr.self_times() == [6.0, 2.0, 1.0, 1.0]
    totals = tr.layer_totals()
    assert totals == {"criteria.C4_s": 6.0, "symfunc.integral_s": 2.0,
                      "symfunc.quad_s": 2.0}
    # the self times of a tree add up to the wall time of its root
    assert sum(totals.values()) == 10.0


def test_layer_totals_filter_by_operation_and_label_regimes():
    tr = Tracer()
    ev = _span(tr, "criteria.evaluate.III", 0.0, 4.0, -1, op=1)
    _span(tr, "criteria.C6", 1.0, 3.0, ev, op=1)
    _span(tr, "rearrange.star", 5.0, 6.0, -1, op=2)
    assert tr.layer_totals([1]) == {"criteria.evaluate_s.III": 4.0,
                                    "criteria.C6_s": 2.0}
    assert tr.layer_totals([2]) == {"rearrange.star_s": 1.0,
                                    "rearrange.star_calls": 1}


def _workload(*ops):
    return Workload("fake", list(ops))


def _ok():
    return Op("ok", "g", lambda: 1.0, lambda x: Verdict(x == 1.0, "", 0.5))


def test_forced_failure_counts_in_fail_frac_and_correctness():
    def boom():
        raise OverflowError("math range error")

    wl = _workload(_ok(), Op("crash", "g", boom, lambda x: Verdict(True)),
                   Op("wrong", "g", lambda: 2.0,
                      lambda x: Verdict(x == 1.0, "2 != 1"), "known"))
    p = run.run_pass(wl)
    assert [v.ok for v in p.verdicts] == [True, False, False]
    assert p.verdicts[1].detail.startswith("crash: OverflowError")
    e2e = run.end_to_end(wl, [p, p], [0.1, 0.3, 0.2], 50.0)
    value, unit, note = e2e["fail_frac"]
    assert value == pytest.approx(4 / 6) and note == "4 failed of 6 attempted"


def test_reported_sample_counts():
    wl = _workload(_ok(), Op("jt", "joint_type", lambda: 1.0,
                             lambda x: Verdict(True)))
    passes = [run.run_pass(wl) for _ in range(3)]
    e2e = run.end_to_end(wl, passes, [0.1, 0.3, 0.2], 50.0)
    assert e2e["setup_s"][0] == 0.2
    assert e2e["setup_s"][2] == "median of 3 set-ups"
    assert e2e["pass_s"][2] == "median of 3 passes of 2 ops"
    assert e2e["pass_rel"][2] == "pass_s over the median of 3 reference loops"
    assert e2e["joint_type_s_per_signal"][2] == "median of 3 per signal"
    assert e2e["max_rel_err"][:1] == (0.5,)
    assert e2e["max_rel_err"][2] == "over 3 checked finite constants"
    assert "bracket_s" not in e2e and "cli_cold_s" not in e2e


def test_pass_rel_divides_by_the_reference_loop():
    ok = [Verdict(True)] * 2
    passes = [run.Pass(False, [3.0, 1.0], [1.0, 3.0], ok),
              run.Pass(True, [9.0, 9.0], [], ok),
              run.Pass(False, [2.0, 2.0], [2.0], ok),
              run.Pass(False, [8.0, 8.0], [2.0, 4.0], ok)]
    e2e = run.end_to_end(_workload(_ok(), _ok()), passes, [0.2], 50.0)
    assert e2e["pass_s"][0] == 4.0 and e2e["pass_rel"][0] == 4.0 / 2.0


def test_reference_loop_time_is_taken_out_of_the_op_it_interrupts(
        monkeypatch):
    monkeypatch.setattr(run, "REF_EVERY_S", 0.05)

    def spin():
        t = time.perf_counter()
        while time.perf_counter() - t < 0.3:
            pass

    p = run.run_pass(_workload(Op("spin", "g", spin, lambda x: Verdict(True))))
    # one sample as the pass starts and about one per 0.05 s of spinning;
    # the spin ends 0.3 s after it started, the loops' time not counted
    assert len(p.ref_times) >= 3
    assert p.op_times[0] < 0.3
    assert not run.run_pass(_workload(_ok()), Tracer()).ref_times
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_measure_alternates_and_reports_every_layer_metric():
    import fourierineq.criteria as criteria
    import workloads
    wl = _workload(Op("ev", "evaluate", lambda: criteria.evaluate(
        criteria.WeightSpec.one(),
        criteria.WeightSpec.one(criteria.NONDECREASING),
        criteria.ExponentConfig(2, 2)),
        lambda rep: Verdict(rep.holds is True)))
    tr = Tracer()
    passes, rss = run.measure(wl, 0.0, tr, [workloads])
    assert [p.traced for p in passes] == [False, True] and rss > 0
    layers = run.per_layer(passes, 0.9)
    assert set(layers) == set(layer_metric_names()) | {"cli.import_s",
                                                        "trace_overhead"}
    assert layers["criteria.evaluate_s.I"] > 0
    assert layers["criteria.C3_s"] > 0 and layers["symfunc.sup_s"] > 0


def test_rebinding_reaches_importers_and_is_undone():
    import scipy.integrate
    import fourierineq
    from fourierineq import calderon, criteria, extremal, pieces, rearrange
    from fourierineq import symfunc
    orig = {"star": rearrange.star, "evaluate": criteria.evaluate,
            "quad": pieces.quad, "sq": scipy.integrate.quad,
            "from_cells": pieces.StepFunction.__dict__["from_cells"]}
    tr = Tracer()
    tr.install()
    try:
        assert tr.missing == set()
        for mod in (rearrange, calderon):
            assert mod.star is not orig["star"]
        for mod in (criteria, extremal, fourierineq):
            assert mod.evaluate is not orig["evaluate"]
        assert rearrange.quad is pieces.quad is not orig["quad"]
        assert scipy.integrate.quad is not orig["sq"]
        # the package's own quad wrappers keep scipy's original, so an
        # integral is counted once, under its entry point
        assert pieces._scipy_quad is orig["sq"]
        val, _ = symfunc.quad(lambda t: t * t, 0.0, 1.0)
        assert val == pytest.approx(1 / 3)
        assert tr.counts["symfunc.quad_calls"] == 1
        assert tr.counts["symfunc.integrand_evals"] == 21  # one G-K 21 rule
        assert "criteria.integrand_evals" not in tr.counts
        assert pieces.StepFunction.from_cells([0.0, 1.0], [2.0])(0.5) == 2.0
        assert tr.layer_totals()["pieces.from_cells_s"] > 0
    finally:
        tr.uninstall()
    assert rearrange.star is calderon.star is orig["star"]
    assert criteria.evaluate is extremal.evaluate is orig["evaluate"]
    assert fourierineq.evaluate is orig["evaluate"]
    assert pieces.quad is rearrange.quad is orig["quad"]
    assert scipy.integrate.quad is orig["sq"]
    assert pieces.StepFunction.__dict__["from_cells"] is orig["from_cells"]
    assert not math.isnan(pieces.StepFunction.from_cells([0, 1], [1.0])(0.5))
