"""An engine call with one amplitude keeps its bookkeeping in floats
(quadrature._periodic_one); with more it runs on arrays.  Each single call
must give the bits of the same amplitude inside a two-amplitude call."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodkit import quadrature
from periodkit.bessel import _variational, j1_integral, variational_integral
from periodkit.errors import NoConvergence, NonMonotoneEnergy
from periodkit.model import LAM_C, X_MIN, PotentialSystem
from periodkit.quadrature import (MAX_NODES, REL_TOL, ROUNDING_FLOOR, XI_MIN, period_at_amplitude,
                                  period_samples, period_slope, period_slopes)

TWO_PI = 2.0 * math.pi

KINDS = {"period": quadrature._PERIOD, "deviation": quadrature._DEVIATION,
         "slope": quadrature._SLOPE, "coupling": quadrature._COUPLING}


def _outcome(call):
    """The bits of the first entry of each array call returns, or the type
    and message of what it raised."""
    try:
        return [a[:1].tobytes() for a in call()]
    except (NonMonotoneEnergy, NoConvergence, ValueError) as exc:
        return type(exc), str(exc)


def _one_and_pair(name, lam, x, partner):
    kind, sys_ = KINDS[name], PotentialSystem(lam)
    one = _outcome(lambda: quadrature._integrals(sys_, (kind, np.array([x]))))
    with np.errstate(divide="ignore"):  # numpy's floor of a row where g(xi) is 0
        pair = _outcome(lambda: quadrature._integrals(sys_, (kind, np.array([x, partner]))))
    return one, pair


def _least(name, lam):
    return KINDS[name].nilpotent_min if lam == -1.0 else XI_MIN


amplitudes = st.floats(-300.0, 5.0).map(lambda e: 10.0 ** e)


@settings(max_examples=150, deadline=None)
@given(lam=st.floats(-1.0, 4.5), x=amplitudes, partner=amplitudes)
def test_one_amplitude_gives_the_bits_of_a_batched_row(lam, x, partner):
    for name in KINDS:
        least = _least(name, lam)
        one, pair = _one_and_pair(name, lam, max(x, least), max(partner, least))
        assert one == pair, name


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.0, 1e5), partner=st.floats(0.0, 1e5))
def test_one_j1_integral_gives_the_bits_of_a_batched_row(x, partner):
    raw, diff = _variational([x, partner])
    assert variational_integral(x).hex() == float(raw[0]).hex()
    assert [a[:1].tobytes() for a in _variational([x])] == [a[:1].tobytes() for a in (raw, diff)]
    if x > 0.0:  # j1_integral(0) is 0 without the trapezoid
        j1 = j1_integral(x)
        assert j1.value.hex() == (float(raw[0]) / TWO_PI).hex()
        assert j1.err_bound.hex() == max(float(diff[0]) / TWO_PI, quadrature.EPS * (1.0 + x)).hex()


@pytest.mark.parametrize("name", KINDS)
@pytest.mark.parametrize("lam,x,partner", [
    (1.0, 1e5, 2.0),        # first pass of 65,537 nodes, in three chunks past the cache
    (-0.5, 1e5, 1e5),
    (-1.0, 0.3, 1.0),       # defect rows at the nilpotent center
    (-1.0, 1e-3, 1.0),
    (4.5, 4.4, 1.0),        # next to the side equilibria
    (0.0, 1.0, 3.0),        # every deviation node is -0.0
    (-0.0, 1.0, 3.0),
    (LAM_C * (1 - 1e-8), X_MIN, 1.0),  # the runaway: rounding-limited, unconverged
    (6.0, 3.9, 1.0),        # NonMonotoneEnergy
    (1.0, 1.0, 0.5),        # the slope's R next to a row of its series, taken again
    (1.0, math.nextafter(1.0, 0.0), 2.0),
    (0.0, 1.0, 1e-140),     # below FULL_CLAMP_XI every half argument is raised
    (0.0, math.nextafter(1.0, 0.0), 1e-140),
    (2.25, 1.0, 1e-140),
])
def test_fixed_cases_give_the_bits_of_a_batched_row(name, lam, x, partner):
    one, pair = _one_and_pair(name, lam, x, partner)
    assert one == pair


def test_zero_restoring_force_floors_like_numpy():
    # past the edge x + lam*sin(x) can round to 0 exactly: numpy's floor
    # quotient is then inf, where a float quotient would raise
    x = 4.001100550275138
    lam = -x / math.sin(x)
    assert x + lam * math.sin(x) == 0.0
    for name in KINDS:
        one, pair = _one_and_pair(name, lam, x, 1.0)
        assert one == pair
        assert one[0] is NonMonotoneEnergy


def test_runaway_no_convergence_carries_the_batched_row():
    sys_ = PotentialSystem(LAM_C * (1 - 1e-8))
    row = period_samples(sys_, [X_MIN, 1.0])[0]
    with pytest.raises(NoConvergence) as single:
        period_at_amplitude(sys_, X_MIN)
    assert (single.value.best.hex(), single.value.err_est.hex()) == (row.T.hex(),
                                                                     row.err_est.hex())
    with pytest.raises(NoConvergence) as batched:
        period_slopes(sys_, [X_MIN, X_MIN])
    with pytest.raises(NoConvergence) as single:
        period_slope(sys_, X_MIN)
    assert str(single.value) == str(batched.value)
    assert (single.value.best.hex(), single.value.err_est.hex()) == (
        batched.value.best.hex(), batched.value.err_est.hex())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-309])
def test_one_bad_amplitude_raises_the_batched_message(bad):
    sys_ = PotentialSystem(1.0)
    with pytest.raises(ValueError) as batched:
        period_samples(sys_, [bad, 1.0])
    with pytest.raises(ValueError) as single:
        period_at_amplitude(sys_, bad)
    assert str(single.value) == str(batched.value)


def _filled(value):
    return lambda rows, nodes, size: np.full((np.arange(size)[rows].size, nodes[0].size), value)


def _one_nan_node(rows, nodes, size):
    fx = np.ones((np.arange(size)[rows].size, nodes[0].size))
    fx[:, nodes[0].size // 2] = math.nan
    return fx


@pytest.mark.parametrize("f", [_filled(math.nan), _filled(-0.0), _filled(math.inf), _one_nan_node],
                         ids=["nan", "negative-zero", "inf", "one-nan-node"])
@pytest.mark.parametrize("floor", [ROUNDING_FLOOR, math.inf])
def test_nan_and_negative_zero_stop_like_the_array_path(f, floor):
    # Python's max(a, b) returns a when b is NaN, np.maximum NaN; a floor of
    # inf times a rule of |f| of 0.0 is NaN
    def run(size):
        with np.errstate(invalid="ignore"):  # inf - inf, and inf*0 where floor is inf
            return [a[:1].tobytes() for a in quadrature._periodic(
                lambda rows, nodes: f(rows, nodes, size), np.full(size, 2.0), REL_TOL, floor)]

    assert run(1) == run(2)


def _first_pass_nodes(x, size):
    """Nodes of the first pass of each of size integrals at x, by a constant
    integrand, which converges there."""
    nodes = np.zeros(size)

    def f(rows, pair):
        nodes[rows] += pair[0].size
        return np.ones((np.arange(size)[rows].size, pair[0].size))

    quadrature._periodic(f, np.full(size, x), REL_TOL, ROUNDING_FLOOR)
    return nodes.tolist()


@pytest.mark.parametrize("m", range(5, 21))
def test_start_count_steps_at_the_same_amplitude_on_both_paths(m):
    # 0.25*xi + 16 = 2^m at xi = 4*(2^m - 16), where ceil(log2) steps (a few
    # ulp above it, as log2 rounds): the float path's math.log2 must round
    # there as the array path's np.log2
    x = 4.0 * (2.0 ** m - 16.0)
    for _ in range(4):
        x = math.nextafter(x, 0.0)
    counts = set()
    for _ in range(9):
        count = _first_pass_nodes(x, 1)
        assert count * 2 == _first_pass_nodes(x, 2)
        counts.add(count[0])
        x = math.nextafter(x, math.inf)
    assert counts <= {2 * min(2 ** k, MAX_NODES // 4) + 1 for k in (m, m + 1)}
