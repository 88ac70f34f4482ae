"""Shared test settings: hypothesis draws the same examples on every run and
keeps no example database, so two checkouts run identical property tests.
The fresh fixture runs a program in a new interpreter on this checkout."""

import os
import subprocess
import sys

import pytest
from hypothesis import settings

import periodkit

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def _fresh(code: str, **env: str) -> list[str]:
    """stdout lines of code run in a fresh interpreter on this checkout, with
    env added to its environment; it must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(periodkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src,
                                                OPENBLAS_NUM_THREADS="1", **env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture
def fresh():
    return _fresh
