"""The traced benchmark wraps qsalign functions where callers look them up.

``bench/layers.py`` names each hook as a (module, attribute) pair and
replaces that attribute while tracing. If a refactor removes or renames
one, ``bench/run.py --trace 1`` crashes or silently loses its counts, so
every hooked name must still resolve to a callable.
"""
import importlib
from pathlib import Path

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
