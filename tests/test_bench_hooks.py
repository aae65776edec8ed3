"""The traced benchmark wraps qsalign functions where callers look them up.

``bench/layers.py`` names each hook as a (module, attribute) pair and
replaces that attribute while tracing. If a refactor removes or renames
one, ``bench/run.py --trace 1`` crashes or silently loses its counts, so
every hooked name must still resolve to a callable.
"""
import importlib
from pathlib import Path

from qsalign.experiments import random_database
from qsalign.registers import database_state

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_bench_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    sites = [(module, attr) for module, attr, _, _ in layers.HOOKS]
    sites.append((layers.qsa, "hamming"))  # counted, not timed
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in sites
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_perturbation_reports_the_seed_it_was_given(monkeypatch):
    # the traced sweep counts a returned hermitian_seed other than the seed
    # passed in as a redraw, so perturb_state must hand its seed back
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    state = database_state(random_database(3, "floor", 0))
    for fidelity in (0.8, 1.0):
        args = (state, fidelity, 4321)
        result = layers.experiments.perturb_state(*args)
        assert result[1].hermitian_seed == 4321
        assert layers._redraw(args, {}, result) == 0
