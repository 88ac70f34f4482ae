"""Shared test settings: hypothesis draws the same examples on every run and
keeps no example database, so two checkouts run identical property tests."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
