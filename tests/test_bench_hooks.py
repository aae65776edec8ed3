"""The traced benchmark wraps qsalign functions where callers look them up.

``bench/layers.py`` names each hook as a (module, attribute) pair and
replaces that attribute while tracing. If a refactor removes or renames
one, ``bench/run.py --trace 1`` crashes or silently loses its counts, so
every hooked name must still resolve to a callable, and the probes of a
search must still go through a hooked name.
"""
import importlib
from pathlib import Path

import pytest

from qsalign.experiments import random_database, random_target
from qsalign.grover import make_plan, phase_oracle, search_circuit
from qsalign.qsa import QsaConfig, count_matches
from qsalign.registers import RegisterLayout, database_state, exact_loader, initialisation_unitary

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


@pytest.mark.parametrize("blind", [False, True])
def test_every_probe_is_one_traced_kernel_span(monkeypatch, blind):
    # a probe simulated past the hooks would leave simcore.kernel blind to
    # the search's gate work and file it under qsa.run self time
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    db = random_database(4, "floor", 3)
    target = random_target(4, 4)
    loader = exact_loader(db)
    with tracing.Tracer() as tracer:
        layers.install(tracer)
        result = layers.qsa.run_qsa(loader, db, target, QsaConfig(shots=256, rng_seed=5, blind=blind))
    layout = RegisterLayout(4)
    prep = initialisation_unitary(loader, target, layout)
    expected = []
    for delta in dict.fromkeys(result.delta_trace):
        plan = 1 if blind else make_plan(db.size, count_matches(db, target, delta)).layers
        expected.append([len(search_circuit(prep, phase_oracle(layout, delta), plan)), layout.total])
    probes = [span[tracing.INFO] for span in tracer.spans if span[tracing.NAME] == "qsa.run_circuit"]
    # the nearest entries sit at distance 1, so a blind search probes
    # delta = 0 first, and a counted one probes delta = 1 alone
    assert probes == expected
    assert len(probes) == (2 if blind else 1)
    assert layers.layer_metrics(tracer)[0]["qsa.probes"] == len(expected)
