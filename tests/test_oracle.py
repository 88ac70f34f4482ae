import gc
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodkit import oracle
from periodkit.cli import main
from periodkit.errors import EventMissed, ToleranceUnmet
from periodkit.model import LAM_C, X_MIN, PotentialSystem
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


def test_full_loop_apart_from_its_quarters_raises(capsys):
    # next to a double turning point the full loop's second fall comes far
    # too early: 473.50 against the quarter mode's 772.40 (the 30-digit
    # period is 772.40368693), each with an err_est below 1e-6
    argv = ["oracle", "--lambda", repr(LAM_C * (1 - 1e-8)), "--xi", repr(X_MIN),
            "--tol", "1e-11", "--full-return"]
    with pytest.raises(ToleranceUnmet, match=r"full loop 473\.50\d* and four quarter periods "
                                             r"772\.40\d* differ by more than their err_est"):
        orbit_period(PotentialSystem(LAM_C * (1 - 1e-8)), X_MIN, tol=1e-11, full_return=True)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: the full loop 473.50")


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
    """Count the calls of the stepper's rhs (the batch's _scaled calls
    _stacked too) and of the Hénon run's, by name."""
    calls = Counter()

    def counted(f):
        def g(t, s, *args):
            calls[f.__name__] += 1
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
    plain = calls.total()
    orbit_period(sys_, 7.0, tol=1e-11)
    period = calls.total() - plain
    orbit_trace(sys_, 7.0, tol=1e-11)
    trace = calls.total() - plain - 2 * period
    before = calls.total()
    assert main(argv + ["--dump-trace", str(tmp_path / "trace.csv")]) == 0
    assert calls.total() - before == plain + trace
    capsys.readouterr()


def test_orbit_turning_back_between_its_arc_seeds_is_named(monkeypatch):
    # every arc seed of the orbit through (5.3, 0) at lam = 5 lies below its
    # energy, but G peaks above it near x = 4.10, between the seeds x = 4.20
    # and 3.75: the arc from x = 4.20 turns back at once, and the batch stops
    # there after 62 rhs calls
    calls = _count_rhs_calls(monkeypatch)
    with pytest.raises(EventMissed, match=r"y fell through 0 at x=4\.18.* before the section "
                                          r"x=3\.7476.*xi=5\.3\b.*lam=5"):
        orbit_periods(PotentialSystem(5.0), [1.0, 5.3], tol=1e-9)
    assert calls.total() <= 500


def test_trapped_orbit_in_a_batch_is_named(monkeypatch):
    # the orbit through (4.5, 0) turns back at x > 0: its arc seed at x =
    # 4.46 lies above its energy (G(4.46) > G(4.5)), so the batch raises
    # before any run, where a run to MAX_EVENT_TIME/2 would take far more
    calls = _count_rhs_calls(monkeypatch)
    with pytest.raises(EventMissed, match=r"G\(x=4\.46.*xi=4\.5\b.*lam=6"):
        orbit_periods(PotentialSystem(6.0), [1.0, 4.5], tol=1e-9)
    assert calls.total() == 0


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("lam", [-0.99, -0.9, 0.5, 1.0, 2.5, 4.4, 4.5])
def test_error_estimate_covers_the_quadrature_gap(lam, tol):
    sys_ = PotentialSystem(lam)
    amps = np.geomspace(0.3, 33.0, 10)
    for ode, quad in zip(orbit_periods(sys_, amps, tol=tol), period_samples(sys_, amps)):
        assert abs(ode.T - quad.T) <= ode.err_est


@pytest.mark.parametrize("lam", [-0.99, 1.0, 4.5, 1e-12])
def test_verify_oracle_rhs_call_ceiling(monkeypatch, lam):
    # the 10 verify orbits' 120 arcs, each orbit in its own time unit, share
    # one stacked compiled DOP853 run and one Hénon run: 86, 62, 110 and 38
    # stepper rhs calls here, and 14, 52, 14 and 229 Hénon calls (one more
    # from a process's second run with a first step on).  With one time unit
    # for all orbits, at 8 arcs, the stepper took 902, 144, 440 and 38, paced
    # by the slowest orbit, and the Hénon run 14, 52, 52 and 128.  At lam =
    # 1e-12 the stepper's first step falls short of every section, so the
    # next one passes each by most of an arc, and the Hénon legs that end
    # near a turning point, where y has a square-root branch point in x, take
    # many steps.  Each orbit as one stacked run to its quarter-period
    # crossing took 574-1473 calls; one RK45 run per orbit 10184-13772
    stepper, henon = {-0.99: ((70, 100), (14, 30)), 1.0: ((50, 75), (40, 65)),
                      4.5: ((90, 130), (14, 30)), 1e-12: ((30, 45), (180, 280))}[lam]
    calls = _count_rhs_calls(monkeypatch)
    assert _check_oracle(PotentialSystem(lam), 11 * PI).passed
    assert stepper[0] <= calls["_stacked"] <= stepper[1]
    assert henon[0] <= calls["_section"] <= henon[1]


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
    assert {c.__name__ for c in callbacks} == {"_scaled", "_stop_on_sections", "_stacked",
                                                "_stop_on_fall", "_section", "_record"}
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
    # the stacked run of a batch ends at the time limit in the time unit of
    # its orbit with the smallest c, here the only one, before an arc of the
    # orbit through 1e-4 reaches its section (at 5e-4, or beside the orbit
    # through 0.3, each arc reaches its own, and only their sum passes the
    # limit): the batch names it
    with pytest.raises(EventMissed, match=r"^no quarter-period crossing of x=0 within t=5000 "
                                          r"\(lam=-1, xi=0\.0001\)$"):
        orbit_periods(PotentialSystem(-1.0), [1e-4], tol=1e-10)


@pytest.mark.parametrize("lam, xis, message", [
    (6.0, [1.0, 3.84], r"^g\(xi=3\.84\) = -0\.0179.* < 0: .*xi=3\.84\b.*lam=6"),
    (-1.0, [0.3, 1e-120], r"^no quarter-period crossing of x=0 within t=5000 \(lam=-1, xi=1e-120\)$"),
])
def test_orbit_without_a_time_unit_is_named_before_any_run(monkeypatch, lam, xis, message):
    # g(3.84) < 0 at lam = 6, though every arc seed lies below the energy:
    # the orbit leaves (3.84, 0) outwards.  At the nilpotent center g(1e-120)
    # underflows to 0: the computed orbit never leaves (1e-120, 0), and its
    # period (about 1.8e121) is past the time limit anyway.  Neither has a
    # time unit (g(xi)/xi)^(-1/2), so the batch raises before any run
    calls = _count_rhs_calls(monkeypatch)
    with pytest.raises(EventMissed, match=message):
        orbit_periods(PotentialSystem(lam), xis, tol=1e-9)
    assert calls.total() == 0


@pytest.mark.parametrize("lam, xis", [
    (-1.0, [1e-3, 0.1, 1.0, 5.0]),
    # near the double turning point at X_MIN err_est = 100*tol*T understates
    # the ODE error: against the 30-digit period, orbit_period misses by 24
    # times its err_est here, the batch by 1.4 times
    pytest.param(LAM_C * (1 - 1e-8), [X_MIN], marks=pytest.mark.xfail(
        strict=True, reason="the ODE err_est understates the error near a double turning point")),
    (100.0, [0.5, 1.0]),
    (1e-12, np.geomspace(0.3, 33.0, 10).tolist()),
])
def test_batch_at_its_edges_agrees_with_one_run(lam, xis):
    # the hypothesis tests draw lam in [-0.99, 4.5] and xi in [0.3, 33];
    # here the time units span c = 0.92 to 2450 at the nilpotent center,
    # 1e4 next to LAM_C and 0.1 at lam = 100
    s = PotentialSystem(lam)
    for arcs, xi in zip(orbit_periods(s, xis, tol=1e-11), xis):
        one = orbit_period(s, xi, tol=1e-11)
        assert abs(arcs.T - one.T) <= arcs.err_est + one.err_est


def test_nilpotent_batch_runs_in_its_orbits_time_units(monkeypatch):
    # in one time unit for all four orbits the run took 73,538 stepper rhs
    # calls, paced by the orbit through 1e-3 (period 18,166); in its own time
    # units each orbit's quarter period is about 1.6 to 1.9, and it takes 38
    calls = _count_rhs_calls(monkeypatch)
    orbit_periods(PotentialSystem(-1.0), [1e-3, 0.1, 1.0, 5.0], tol=1e-11)
    assert calls["_stacked"] <= 100


@pytest.mark.parametrize("lam, xi, quarter, loop, steps", [
    (1.0, 3.0, "0x1.6cedd27b53f55p+2", "0x1.6cedd27b51844p+2", 59),
    (-0.9, 7.0, "0x1.92627d1ce9789p+2", "0x1.92627d1ce88fep+2", 103),
    (4.4, 7.0, "0x1.a05d183b6fba5p+2", "0x1.a05d183b70891p+2", 128),
])
def test_one_orbit_routes_keep_their_bits(lam, xi, quarter, loop, steps):
    # the one-orbit routes share the stepper's and Hénon's rhs with the
    # batch, which changes them for its own ends; these bits were recorded
    # while the Hénon rhs still allocated its result (numpy 2.4.6 on x86-64
    # with AVX-512), and both modes and the trace must keep them
    s = PotentialSystem(lam)
    assert orbit_period(s, xi, tol=1e-11).T.hex() == quarter
    assert orbit_period(s, xi, tol=1e-11, full_return=True).T.hex() == loop
    assert orbit_trace(s, xi, tol=1e-11).samples.shape[0] == steps


def test_empty_batch_runs_nothing(monkeypatch):
    calls = _count_rhs_calls(monkeypatch)
    assert orbit_periods(PotentialSystem(1.0), []) == []
    assert calls.total() == 0


def test_exhausted_step_budget_raises_without_a_warning(monkeypatch):
    # at lam = 4.5 the batch's stepper needs more than 3 steps
    monkeypatch.setattr(oracle, "MAX_STEPS", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceUnmet, match="larger nsteps"):
            orbit_periods(PotentialSystem(4.5), [0.3, 33.0], tol=1e-10)


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


@pytest.mark.parametrize("x_t", [0.0, np.array([2.5, -0.4142135623730951, 0.0])])
def test_section_rhs_writes_in_place_with_its_old_bits(x_t):
    # Hénon's rhs writes into the buffer its run passes, in the arithmetic
    # order of the expression it replaced, so the one-orbit runs (x_t = 0)
    # and the batch's keep their bits; a rounding-level change there moves
    # no pinned period, so it is pinned here
    lam, u = 2.5, 1.0 / 3.0
    x_end = np.array([2.718281828459045, -0.12345678901234, 0.5772156649015329])
    s = np.array([0.7071067811865476, 1.3, 2.1, 4.0, 5.0, 6.0])
    out = np.full(9, np.nan)
    written = oracle._section(u, s, lam, out, x_t, x_end)
    d = x_end - x_t
    x = x_t + d * (1.0 - u)
    dt = d / s[:3]
    expected = np.concatenate((dt * (x + lam * np.sin(x)), dt))
    assert written.base is out and written.shape == (6,)
    assert np.array_equal(written.view(np.int64), expected.view(np.int64))


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
