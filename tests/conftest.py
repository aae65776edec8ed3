"""Test-suite settings shared by every test module."""
from hypothesis import settings

# every run draws the same examples and saves none of them, so a property
# test passes or fails the same way on every run and machine
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
