"""The package's public names and what importing it loads."""

import ast
import json

import periodkit
from periodkit.model import PotentialSystem
from periodkit.oracle import orbit_periods


def test_all_names_resolve_once():
    # a name left in __all__ after its deletion would break only
    # `from periodkit import *`; here it fails the ordinary suite
    assert len(set(periodkit.__all__)) == len(periodkit.__all__)
    assert [name for name in periodkit.__all__ if not hasattr(periodkit, name)] == []


def test_scipy_loads_only_with_an_orbit(fresh):
    # the quadrature, the searches, J1 and the CLI need numpy alone; the
    # quarter-period oracle loads scipy's compiled DOP853 from its file,
    # without the scipy package or scipy.integrate
    code = (
        "import math, sys\n"
        "import periodkit, periodkit.cli\n"
        "from periodkit import *\n"
        "s = PotentialSystem(1.0)\n"
        "period_at_amplitude(s, 2.0); period_at_energy(s, 5.0); period_derivative(s, 5.0)\n"
        "scan_period(s, 0.5, 50.0, 100)\n"
        "find_critical_periods(s, 11 * math.pi)\n"
        "find_two_pi_levels(s, two_pi_brackets(s, 3))\n"
        "j1_zeros(5); opial_sign_changes(s, 50.0)\n"
        "assert periodkit.cli.main(['period', '--lambda', '-1e-8', '--h', '1.2e-288']) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        "print(repr(orbit_period(PotentialSystem(1), 2.0).T))\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], "
        "sorted(m for m in sys.modules if 'scipy' in m)\n")
    assert fresh(code)[-1] == "5.00988108828493"


def test_no_oracle_path_loads_a_scipy_module(fresh, tmp_path):
    # a cold verify, the full loop, the trace, its drift and the CLI's
    # oracle run on the same compiled stepper as the quarter period; through
    # solve_ivp they imported 355 scipy modules
    trace, report = tmp_path / "trace.csv", tmp_path / "verify.json"
    code = (
        "import sys\n"
        "from periodkit import PotentialSystem, energy_drift, orbit_period, orbit_trace\n"
        "from periodkit.cli import main\n"
        f"assert main(['verify', '--lambda', '1', '--k-max', '5', '--out', {str(report)!r}]) == 0\n"
        "s = PotentialSystem(1.0)\n"
        "orbit_period(s, 3.0, full_return=True); orbit_trace(s, 3.0); energy_drift(s, 3.0)\n"
        "assert main(['oracle', '--lambda', '1', '--xi', '3', '--full-return',\n"
        f"             '--dump-trace', {str(trace)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert fresh(code)[-1] == "[]"
    assert trace.read_text().splitlines()[0] == "t,x,y,H"
    assert json.loads(report.read_text())["passed"] is True


_ORBITS = ("from periodkit import PotentialSystem, oracle\n"
           "def orbits():\n"
           "    return [s.T for lam in (-0.5, 1.0, 4.5)\n"
           "            for s in oracle.orbit_periods(PotentialSystem(lam), [0.3, 2.0, 9.0])]\n")

_SCIPY_INTEGRATE = (
    "import scipy.integrate\n"
    "scipy.integrate.ode(lambda t, y: -y).set_integrator('dop853').set_initial_value([1.0])\n"
    "full = oracle.orbit_period(PotentialSystem(1.0), 3.0, full_return=True).T\n"
    "assert callable(scipy.integrate._dop.dopri853)\n")


def test_oracle_and_scipy_integrate_load_in_either_order(fresh):
    # the oracle's extension module stands outside sys.modules, so it does
    # not hide scipy.integrate's own _dop, loaded before or after it
    first = fresh(_ORBITS + "a = orbits()\n" + _SCIPY_INTEGRATE + "print(repr((a, orbits(), full)))")
    last = fresh(_ORBITS + _SCIPY_INTEGRATE + "print(repr((orbits(), orbits(), full)))")
    (a, b, full), (c, d, full2) = ast.literal_eval(first[-1]), ast.literal_eval(last[-1])
    here = [s.T for lam in (-0.5, 1.0, 4.5)
            for s in orbit_periods(PotentialSystem(lam), [0.3, 2.0, 9.0])]
    assert a == b == c == d == here and full == full2


_ROOTS = ("from periodkit import PotentialSystem, energy_to_amplitude, opial_sign_changes\n"
          "def roots():\n"
          "    return ([energy_to_amplitude(PotentialSystem(lam), h)\n"
          "             for lam in (-1.0, -1e-8, 1.0, 5.0) for h in (1.2e-288, 0.5, 1.0)],\n"
          "            [PotentialSystem(lam).edge() for lam in (4.7, 5.0, 50.0)],\n"
          "            opial_sign_changes(PotentialSystem(1.0), 20.0))\n")

_SCIPY_OPTIMIZE = (
    "import sys, scipy.optimize\n"
    "assert abs(scipy.optimize.brentq(lambda x: x * x - 2.0, 0.0, 2.0) - 2 ** 0.5) < 1e-11\n"
    "assert sys.modules['scipy.optimize._zeros'] is scipy.optimize._zeros\n"
    "assert callable(scipy.optimize._zeros._brentq)\n")


def test_root_finder_and_scipy_optimize_load_in_either_order(fresh):
    # the root finder's extension module leaves no entry in sys.modules, so
    # a later import of scipy.optimize loads its own _zeros, and one made
    # earlier serves the root finder as well
    first = fresh(_ROOTS + "a = roots()\n" + _SCIPY_OPTIMIZE + "print(repr((a, roots())))")
    last = fresh(_ROOTS + _SCIPY_OPTIMIZE + "print(repr((roots(), roots())))")
    (a, b), (c, d) = ast.literal_eval(first[-1]), ast.literal_eval(last[-1])
    here = {}
    exec(_ROOTS, here)
    assert a == b == c == d == here["roots"]()


def test_threads_loading_the_compiled_stepper_get_the_serial_periods(fresh):
    # three threads make the first inversions and run the first orbits of a
    # fresh process at once, each load slowed to let them meet there: each
    # extension is loaded once, and every root and period is the serial one
    code = _ROOTS + _ORBITS + (
        "import importlib.util, sys, threading, time\n"
        "sys.setswitchinterval(1e-6)\n"
        "loads, load = [], importlib.util.module_from_spec\n"
        "def slow_load(spec):\n"
        "    loads.append(spec.name)\n"
        "    time.sleep(0.05)\n"
        "    return load(spec)\n"
        "importlib.util.module_from_spec = slow_load\n"
        "start, got = threading.Barrier(3, timeout=60), {}\n"
        "def run(i):\n"
        "    start.wait()\n"
        "    got[i] = roots(), orbits()\n"
        "threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(60)\n"
        "assert not any(t.is_alive() for t in threads) and len(got) == 3\n"
        "assert list(got.values()) == [(roots(), orbits())] * 3, got\n"
        "assert loads == ['scipy.optimize._zeros', 'scipy.integrate._dop'], loads\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        "print('ok')\n")
    assert fresh(code)[-1] == "ok"
