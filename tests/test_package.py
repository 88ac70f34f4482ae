"""The package's public names and what importing it loads."""

import os
import subprocess
import sys

import periodkit


def test_all_names_resolve_once():
    # a name left in __all__ after its deletion would break only
    # `from periodkit import *`; here it fails the ordinary suite
    assert len(set(periodkit.__all__)) == len(periodkit.__all__)
    assert [name for name in periodkit.__all__ if not hasattr(periodkit, name)] == []


def test_scipy_loads_only_with_an_orbit():
    # the quadrature, the searches, J1 and the CLI need numpy alone; scipy's
    # integrators are imported by the first ODE orbit
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
        "assert 'scipy.integrate' in sys.modules\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(periodkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "5.00988108828493"
