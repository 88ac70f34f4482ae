import gc
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodkit import oracle
from periodkit.cli import main
from periodkit.errors import EventMissed, ToleranceUnmet
from periodkit.model import PotentialSystem
from periodkit.oracle import energy_drift, orbit_period, orbit_periods, orbit_trace
from periodkit.quadrature import PeriodSample, period_at_amplitude, period_samples
from periodkit.report import _check_oracle

PI = math.pi
TWO_PI = 2 * PI


def test_harmonic_oscillator_period():
    sample = orbit_period(PotentialSystem(0.0), 2.0, tol=1e-10)
    assert sample.T == pytest.approx(TWO_PI, abs=1e-9)
    assert sample.method == "ode-oracle"
    assert sample.h == pytest.approx(2.0, rel=1e-15)


def test_agreement_with_quadrature_spot():
    s1 = PotentialSystem(1.0)
    ode = orbit_period(s1, 2 * PI, tol=1e-10)
    quad = period_at_amplitude(s1, 2 * PI)
    assert abs(ode.T - quad.T) / quad.T <= 1e-7


def test_nilpotent_blowup_direction():
    sn = PotentialSystem(-1.0)
    periods = [orbit_period(sn, xi, tol=1e-11).T for xi in (0.3, 0.2, 0.1)]
    assert all(t > TWO_PI for t in periods)
    assert periods[0] < periods[1] < periods[2]


def test_tolerance_validation():
    with pytest.raises(ValueError):
        orbit_period(PotentialSystem(0.0), 1.0, tol=1e-5)
    with pytest.raises(ValueError):
        orbit_period(PotentialSystem(0.0), 1.0, tol=1e-13)
    with pytest.raises(ValueError):
        orbit_period(PotentialSystem(0.0), -1.0)


def test_event_missed_for_trapped_orbit():
    # lam=6 has extra equilibria; the orbit through (4.5, 0) winds around a
    # side center and never reaches the negative-x half of the section
    with pytest.raises(EventMissed):
        orbit_period(PotentialSystem(6.0), 4.5, tol=1e-9)


def test_energy_drift_bounds():
    assert energy_drift(PotentialSystem(0.0), 1.0, tol=1e-10) <= 1e-9
    s2 = PotentialSystem(2.0)
    h = float(s2.G(10.0))
    assert energy_drift(s2, 10.0, tol=1e-10) <= 1e-8 * (1 + h)


def test_drift_scales_with_tolerance():
    s1 = PotentialSystem(1.0)
    loose = energy_drift(s1, 30.0, tol=1e-10)
    tight = energy_drift(s1, 30.0, tol=1e-12)
    assert tight <= loose / 10.0


@pytest.mark.parametrize("lam", [-0.9, 1.0, 4.4])
def test_full_return_cross_check(lam):
    # four quarter periods against one full loop, which relies on no symmetry
    s = PotentialSystem(lam)
    quartered = orbit_period(s, 7.0, tol=1e-11)
    looped = orbit_period(s, 7.0, tol=1e-11, full_return=True)
    assert looped.T == pytest.approx(quartered.T, abs=1e-8)


def test_full_return_replaces_only_the_period():
    # full_return keeps the quarter-period sample's fields, the same orbit
    # and route, with its own period and error estimate
    s = PotentialSystem(1.0)
    quartered = orbit_period(s, 3.0)
    looped = orbit_period(s, 3.0, full_return=True)
    assert type(looped) is PeriodSample and looped.method == "ode-oracle"
    assert looped.T != quartered.T
    assert looped.err_est == oracle._PERIOD_ERR_FACTOR * 1e-10 * looped.T
    assert looped._replace(T=quartered.T, err_est=quartered.err_est) == quartered


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(-0.99, 4.5), xis=st.lists(st.floats(0.3, 33.0), min_size=1, max_size=4))
def test_oracle_agrees_with_quadrature_within_its_error(lam, xis):
    s = PotentialSystem(lam)
    for ode, quad in zip(orbit_periods(s, xis, tol=1e-11), period_samples(s, xis)):
        assert abs(ode.T - quad.T) <= ode.err_est


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(-0.99, 4.5),
       xis=st.lists(st.sampled_from([0.3, 1.0, 2.7, 7.0, 19.0, 33.0]) | st.floats(0.3, 33.0),
                    min_size=1, max_size=4))
def test_arcs_agree_with_one_run_within_their_errors(lam, xis):
    # orbit_periods sums each quarter period over its arcs, seeded by energy;
    # orbit_period measures it on one run from (xi, 0), which assumes nothing
    s = PotentialSystem(lam)
    for arcs, xi in zip(orbit_periods(s, xis, tol=1e-11), xis):
        one = orbit_period(s, xi, tol=1e-11)
        assert arcs.xi == one.xi and arcs.h == one.h
        assert abs(arcs.T - one.T) <= arcs.err_est + one.err_est


def test_convergence_under_tolerance_halving():
    s1 = PotentialSystem(1.0)
    quad = period_at_amplitude(s1, 5.0)
    coarse = orbit_period(s1, 5.0, tol=1e-9)
    fine = orbit_period(s1, 5.0, tol=5e-10)
    discrepancy = abs(quad.T - coarse.T)
    assert abs(fine.T - coarse.T) <= discrepancy + 1e-12


def test_orbit_trace_contract():
    s1 = PotentialSystem(1.0)
    trace = orbit_trace(s1, 3.0, tol=1e-10)
    t0, x0, y0 = trace.samples[0]
    assert (t0, x0, y0) == (0.0, 3.0, 0.0)
    assert trace.h0 == pytest.approx(float(s1.G(3.0)), rel=1e-15)
    assert trace.max_drift <= 1e-8 * (1 + trace.h0)
    # one full period: the last sample returns to the start
    t_end, x_end, y_end = trace.samples[-1]
    assert x_end == pytest.approx(3.0, abs=1e-6)
    assert y_end == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("xis", [[1.0, 1.0], [2.0, 3.0, 2.0, 3.0]])
def test_batch_with_orbits_crossing_in_one_step(xis):
    # equal amplitudes' arcs cross their sections in the same steps; each
    # crossing must be located at its own time and summed into its own orbit
    s1 = PotentialSystem(1.0)
    odes = orbit_periods(s1, xis, tol=1e-10)
    for ode, quad in zip(odes, period_samples(s1, xis)):
        assert ode.xi == quad.xi
        assert abs(ode.T - quad.T) <= ode.err_est


def _count_rhs_calls(monkeypatch):
    """Count the calls of the stepper's and the section step's rhs."""
    calls = [0]

    def counted(f):
        def g(t, s, *args):
            calls[0] += 1
            return f(t, s, *args)

        return g

    monkeypatch.setattr(oracle, "_stacked", counted(oracle._stacked))
    monkeypatch.setattr(oracle, "_section", counted(oracle._section))
    return calls


@pytest.mark.parametrize("full_return", [False, True])
@pytest.mark.parametrize("lam", [-0.9, 1.0, 4.4])
def test_dump_trace_measures_its_period_once(monkeypatch, tmp_path, capsys, lam, full_return):
    # the trace ends at the T of the payload's own run (at a full loop, four
    # times its first fall), so a traced invocation adds only the trace's
    # run over [0, T]: 348 to 512 fewer rhs calls than measuring T again
    calls = _count_rhs_calls(monkeypatch)
    sys_, argv = PotentialSystem(lam), ["oracle", "--lambda", str(lam), "--xi", "7", "--tol", "1e-11"]
    argv += ["--full-return"] * full_return
    assert main(argv) == 0
    plain = calls[0]
    orbit_period(sys_, 7.0, tol=1e-11)
    period = calls[0] - plain
    orbit_trace(sys_, 7.0, tol=1e-11)
    trace = calls[0] - plain - 2 * period
    before = calls[0]
    assert main(argv + ["--dump-trace", str(tmp_path / "trace.csv")]) == 0
    assert calls[0] - before == plain + trace
    capsys.readouterr()


def test_orbit_turning_back_between_its_arc_seeds_is_named(monkeypatch):
    # every arc seed of the orbit through (5.9, 0) at lam = 6 lies below its
    # energy, but G peaks above it near x = 3.77: the arc from x = 4.17 turns
    # back at once, and the batch stops there after 85 rhs calls
    calls = _count_rhs_calls(monkeypatch)
    with pytest.raises(EventMissed, match=r"y fell through 0 at x=4\.12.* before the section "
                                          r"x=3\.2778.*xi=5\.9\b.*lam=6"):
        orbit_periods(PotentialSystem(6.0), [1.0, 5.9], tol=1e-9)
    assert calls[0] <= 500


def test_trapped_orbit_in_a_batch_is_named(monkeypatch):
    # the orbit through (4.5, 0) turns back at x > 0: its arc seed at x =
    # 4.41 lies above its energy (G(4.41) > G(4.5)), so the batch raises
    # before any run, where a run to MAX_EVENT_TIME/2 would take far more
    calls = _count_rhs_calls(monkeypatch)
    with pytest.raises(EventMissed, match=r"G\(x=4\.41.*xi=4\.5\b.*lam=6"):
        orbit_periods(PotentialSystem(6.0), [1.0, 4.5], tol=1e-9)
    assert calls[0] == 0


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("lam", [-0.99, -0.9, 0.5, 1.0, 2.5, 4.4, 4.5])
def test_error_estimate_covers_the_quadrature_gap(lam, tol):
    sys_ = PotentialSystem(lam)
    amps = np.geomspace(0.3, 33.0, 10)
    for ode, quad in zip(orbit_periods(sys_, amps, tol=tol), period_samples(sys_, amps)):
        assert abs(ode.T - quad.T) <= ode.err_est


@pytest.mark.parametrize("lam", [-0.99, 1.0, 4.5, 1e-12])
def test_verify_oracle_rhs_call_ceiling(monkeypatch, lam):
    # the 10 verify orbits' 80 arcs share one stacked compiled DOP853 run
    # and one Hénon run: 916, 196, 492 and 156 stepper plus section-step rhs
    # calls here, 76-916 over lam in [-0.99, 4.5].  Near lam = 0 the step
    # cap keeps the Hénon run short: uncapped, 3 steps overshot the
    # sections so far that it took 269 calls, 307 in all.  Each orbit as one
    # stacked run to its quarter-period crossing took 574-1473 (1219, 941,
    # 1473 and 112 here); to the half periods it took 926-2235, and one
    # RK45 run per orbit 10184-13772
    floor, ceiling = {-0.99: (600, 1200), 1.0: (100, 400), 4.5: (300, 800),
                      1e-12: (100, 224)}[lam]
    calls = _count_rhs_calls(monkeypatch)
    assert _check_oracle(PotentialSystem(lam), 11 * PI).passed
    assert floor <= calls[0] <= ceiling


def test_compiled_runs_get_module_level_callbacks(monkeypatch):
    # the compiled stepper keeps the fcn and solout of every run for good,
    # so a callback made per run would stay alive with all it refers to;
    # the batch's arcs, the quarter period, the full loop and the trace all
    # run on it
    seen = []
    dop = oracle._dop()  # the extension module _run calls
    compiled = dop.dopri853

    def spy(fcn, t0, y0, t1, rtol, atol, solout, *rest):
        seen.append((fcn, solout))
        return compiled(fcn, t0, y0, t1, rtol, atol, solout, *rest)

    monkeypatch.setattr(dop, "dopri853", spy)
    s = PotentialSystem(2.5)
    assert _check_oracle(s, 11 * PI).passed
    orbit_period(s, 3.0, full_return=True)
    orbit_trace(s, 3.0)
    callbacks = {c for run in seen for c in run if c is not None}
    assert {c.__name__ for c in callbacks} == {"_stacked", "_stop_on_sections", "_stop_on_fall",
                                                "_section", "_record"}
    for c in callbacks:
        assert c.__module__ == "periodkit.oracle"
        assert c.__qualname__ == c.__name__ and getattr(oracle, c.__name__) is c


def test_crossing_is_located_not_taken_at_the_step_end():
    # at lam = 0 every half period is exactly pi; the step that crosses the
    # section ends up to a step length past it
    for sample in orbit_periods(PotentialSystem(0.0), [0.3, 3.0, 30.0], tol=1e-12):
        assert abs(sample.T - TWO_PI) <= 2e-12


def test_no_crossing_by_the_time_limit_raises():
    # at the nilpotent center the period grows like 18.2/xi, so this orbit's
    # quarter period is about 9100, past MAX_EVENT_TIME/2
    with pytest.raises(EventMissed, match=r"no quarter-period crossing.*xi=0\.0005\b"):
        orbit_periods(PotentialSystem(-1.0), [0.3, 5e-4], tol=1e-10)


def test_single_orbit_without_a_crossing_by_the_time_limit_raises():
    # one run of the orbit through 1e-4 at the nilpotent center reaches the
    # time limit before x falls through 0 (its period is about 182,000)
    with pytest.raises(EventMissed, match=r"^no quarter-period crossing of x=0 within t=5000 "
                                          r"\(lam=-1, xi=0\.0001\)$"):
        orbit_period(PotentialSystem(-1.0), 1e-4)


def test_arc_without_a_crossing_by_the_time_limit_raises():
    # the stacked run of a batch stops at the time limit before an arc of
    # the orbit through 1e-4 reaches its section (at 5e-4 each arc reaches
    # its own, and only their sum passes the limit): the batch names it
    with pytest.raises(EventMissed, match=r"^no quarter-period crossing of x=0 within t=5000 "
                                          r"\(lam=-1, xi=0\.0001\)$"):
        orbit_periods(PotentialSystem(-1.0), [0.3, 1e-4], tol=1e-10)


def test_empty_batch_runs_nothing(monkeypatch):
    calls = _count_rhs_calls(monkeypatch)
    assert orbit_periods(PotentialSystem(1.0), []) == []
    assert calls[0] == 0


def test_exhausted_step_budget_raises_without_a_warning(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_STEPS", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceUnmet, match="larger nsteps"):
            orbit_periods(PotentialSystem(1.0), [2.0, 5.0], tol=1e-10)


def test_repeated_batches_retain_no_memory():
    # the compiled stepper never releases the callbacks it ran with, so they
    # are module-level; a scipy.integrate.ode solver per stacked run retained
    # 24 kB a call, two solvers per call 4.4 kB
    amps = np.geomspace(0.3, 33.0, 10)
    orbit_periods(PotentialSystem(1.0), amps, tol=1e-9)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            orbit_periods(PotentialSystem(1.0), amps, tol=1e-9)
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - start) / 20
    finally:
        tracemalloc.stop()
    assert retained <= 32


def test_concurrent_batches_match_serial_ones():
    # the compiled stepper keeps the callback of its current run per thread;
    # three threads on two cores and a tiny switch interval make them trade
    # the GIL inside the callbacks of each other's runs
    cases = [(lam, np.geomspace(0.3, 33.0, 10)) for lam in (-0.9, 1.0, 2.5, 4.4)] * 3

    def periods(case):
        return [s.T for s in orbit_periods(PotentialSystem(case[0]), case[1], tol=1e-10)]

    serial = [periods(case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(periods, cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.mark.parametrize("lam", [-0.99, 4.5])
def test_verify_oracle_runs_without_warnings(lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _check_oracle(PotentialSystem(lam), 11 * PI).passed


def test_stacked_rhs_is_one_frame_and_exact():
    # the rhs is the oracle's inner loop: splitting the state by np.split
    # entered 15 Python frames per call, slicing enters only the rhs itself
    lam = 2.5
    s = np.linspace(-3.0, 4.0, 20)
    out = np.empty_like(s)
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        frames += event == "call"

    sys.setprofile(profile)
    try:
        written = oracle._stacked(0.0, s, lam, out)
    finally:
        sys.setprofile(None)
    assert frames <= 3
    assert written is out
    x, y = s[:10], s[10:]
    expected = np.concatenate((-y, x + lam * np.sin(x)))
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("lam, xi", [(-0.99, 33.0), (1.0, 3.0), (4.5, 10.0)])
def test_trace_takes_the_steps_of_the_measured_run(monkeypatch, lam, xi):
    # the drift gate reads the trace, so the trace must be the run that
    # measured the period: the same accepted steps, bit for bit, up to the
    # quarter-period crossing
    steps = []
    stop = oracle._stop_on_fall

    def spy(t, s, *args):
        steps.append((t, *s.tolist()))
        return stop(t, s, *args)

    monkeypatch.setattr(oracle, "_stop_on_fall", spy)
    orbit_period(PotentialSystem(lam), xi, tol=1e-11)
    monkeypatch.undo()
    trace = orbit_trace(PotentialSystem(lam), xi, tol=1e-11)
    assert len(steps) >= 10 and trace.samples.shape[0] > len(steps)
    measured = np.array(steps)
    assert np.array_equal(trace.samples[:len(steps)].view(np.int64), measured.view(np.int64))
