"""Probes start from the loaded data block, with the gate-level amplitudes.

``registers.loaded_state`` stands for the target load and the loader of
``initialisation_unitary``, and ``run_qsa`` and ``layer_study`` apply only
the rest of each search circuit to it. Everything here is compared with
``np.array_equal`` or ``==`` and no tolerance: the block repeats the
kernel's own arithmetic, so only the sign of a zero may differ.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from qsalign import qsa, simcore
from qsalign.experiments import calibrated_loader, random_database, random_target
from qsalign.gasp import GaConfig
from qsalign.grover import make_plan, phase_oracle, search_circuit
from qsalign.qsa import (
    QsaConfig,
    QsaResult,
    accuracy,
    ideal_distribution,
    run_qsa,
    strip_diagonal_tail,
)
from qsalign.registers import (
    Database,
    RegisterLayout,
    TargetSequence,
    exact_loader,
    hamming,
    initialisation_unitary,
    loaded_state,
    target_loader,
)
from qsalign.simcore import Circuit, apply_circuit, concat, run_circuit, sample_counts

_EMPTY_DB = Database(4, ("0000",))


def _loader(kind, db, seed, requested):
    if kind == "exact":
        return exact_loader(db)
    if kind == "calibrated":
        return calibrated_loader(db, requested, seed)
    # a short GA run: a loader far from the database state, with CNOTs
    loader = calibrated_loader(
        db, requested, seed, GaConfig(population_size=8, max_generations=3, rng_seed=seed)
    )
    assume(any(gate.controls for gate in loader.gates))
    return loader


def _assert_probes_start_from_the_loaded_block(db, target, loader, p_max=3):
    layout = RegisterLayout(db.n)
    prep = initialisation_unitary(loader, target, layout)
    start, loaded_gates = loaded_state(loader, target, layout, run_circuit(loader))
    load = concat(target_loader(target, layout), Circuit(layout.total, loader.gates))
    assert prep.gates[:loaded_gates] == load.gates
    assert np.array_equal(start.amplitudes, run_circuit(load).amplitudes)
    for delta in range(db.n + 1):
        for p in range(p_max + 1):
            circuit = search_circuit(prep, phase_oracle(layout, delta), p)
            rest = Circuit(layout.total, circuit.gates[loaded_gates:])
            got = apply_circuit(start, rest).amplitudes
            assert np.array_equal(got, run_circuit(circuit).amplitudes), (delta, p)


# no shrink phase: shrinking a failing 15-qubit example takes minutes
@pytest.mark.parametrize("kind", ["exact", "calibrated", "short_ga"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(max_examples=2, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(instance_seed=st.integers(0, 2**32 - 1), requested=st.floats(0.0, 1.0, exclude_min=True))
def test_probes_from_the_loaded_block_equal_the_whole_search_circuit(
    n, kind, instance_seed, requested
):
    db = random_database(n, "floor", [instance_seed, 0])
    target = random_target(n, [instance_seed, 1])
    loader = _loader(kind, db, instance_seed, requested)
    _assert_probes_start_from_the_loaded_block(db, target, loader)


def test_the_empty_loader_starts_from_the_target_basis_state():
    # the single all-zero entry loads with no gate at all, so the block is
    # the one basis state |0, t, 0>
    loader = exact_loader(_EMPTY_DB)
    assert loader.gates == ()
    layout = RegisterLayout(4)
    for t in range(16):
        target = TargetSequence(format(t, "04b"))
        start, loaded_gates = loaded_state(loader, target, layout, run_circuit(loader))
        assert np.flatnonzero(start.amplitudes).tolist() == [layout.pack_index(0, t, 0)]
        assert loaded_gates == t.bit_count()
        _assert_probes_start_from_the_loaded_block(_EMPTY_DB, target, loader)


def test_loaded_state_refuses_mismatched_widths():
    db = Database(3, ("101", "010"))
    loader = exact_loader(db)
    layout = RegisterLayout(3)
    wide = exact_loader(Database(4, ("1010",)))
    with pytest.raises(ValueError, match="layout expects 3"):
        loaded_state(loader, TargetSequence("101"), layout, run_circuit(wide))
    with pytest.raises(ValueError, match="layout expects 3"):
        loaded_state(wide, TargetSequence("101"), layout, run_circuit(wide))
    with pytest.raises(ValueError, match="target is 4 bits"):
        loaded_state(loader, TargetSequence("1010"), layout, run_circuit(loader))


def _gate_level_run_qsa(db_loader, db, target, config):
    """``run_qsa`` with every probe one ``run_circuit`` of its whole search circuit."""
    layout = RegisterLayout(db.n)
    seed_root = np.random.SeedSequence(config.rng_seed)
    prep = initialisation_unitary(strip_diagonal_tail(db_loader), target, layout)
    distance = {e: hamming(e, target.bits) for e in db.entries}
    entry_at = {int(e, 2): e for e in db.entries}
    matches = Counter(distance.values())
    trace, nearest = [], None

    def result(match, degraded):
        score = accuracy(counts, ideal_distribution(distance, target, delta, layers))
        return QsaResult(
            match, distance[match], layers, tuple(trace), counts, score, degraded
        )

    for delta in range(db.n + 1) if config.blind else sorted(matches):
        if config.blind:
            layers = 1
        else:
            layers = make_plan(db.size, matches[delta], config.layer_policy).layers
        final = run_circuit(search_circuit(prep, phase_oracle(layout, delta), layers))
        for _ in range(config.repeats):
            trace.append(delta)
            counts = sample_counts(final, config.shots, seed_root.spawn(1)[0])
            # (count, -index, entry) in ascending index order
            seen = [
                (count, -outcome, entry_at[layout.data_index(outcome)])
                for outcome, count in counts.items()
                if layout.data_index(outcome) in entry_at
            ]
            for _, _, entry in seen:
                if nearest is None or distance[entry] < distance[nearest]:
                    nearest = entry
            hits = [item for item in seen if distance[item[2]] == delta]
            if hits:
                return result(max(hits)[2], degraded=False)
    if nearest is None:
        nearest = min(db.entries, key=lambda e: (distance[e], e))
    return result(nearest, degraded=True)


@pytest.mark.parametrize("blind, repeats", [(True, 1), (False, 3), (True, 3)])
def test_run_qsa_equals_a_gate_level_reference(blind, repeats):
    rng = np.random.default_rng(41)
    for n in (3, 4, 5):
        for requested in (1.0, 0.7, 0.3):
            db = random_database(n, "floor", rng)
            target = random_target(n, rng)
            loader = calibrated_loader(db, requested, int(rng.integers(2**31)))
            for policy in ("paper_ceil", "best_integer"):
                config = QsaConfig(
                    shots=256, repeats=repeats, layer_policy=policy, blind=blind,
                    rng_seed=int(rng.integers(2**31)),
                )
                got = run_qsa(loader, db, target, config)
                assert got == _gate_level_run_qsa(loader, db, target, config), (n, requested)
    loader = exact_loader(_EMPTY_DB)
    for t in range(16):
        target = TargetSequence(format(t, "04b"))
        config = QsaConfig(shots=64, repeats=repeats, blind=blind, rng_seed=t)
        assert run_qsa(loader, _EMPTY_DB, target, config) == _gate_level_run_qsa(
            loader, _EMPTY_DB, target, config
        )


@pytest.mark.parametrize("blind", [False, True])
@pytest.mark.parametrize("requested", [1.0, 0.7])
def test_probe_loader_gates_touch_only_the_loaded_block(monkeypatch, blind, requested):
    # a probe's state lives in the 2^n-amplitude row of |., t, 0> whenever
    # it undoes or redoes the loader, so each of those gates must see that
    # row alone, never the 2^(2n+k) amplitudes of the whole register
    n = 5
    sizes, probes = [], []
    kernel = simcore._apply_gate_inplace

    def gate_spy(tensor, gate):
        if probes and gate.kind not in ("X", "Z"):
            sizes.append(tensor.size)
        kernel(tensor, gate)

    def probe_spy(state, circuit):
        probes.append(circuit)
        return simcore.apply_circuit(state, circuit)

    monkeypatch.setattr(simcore, "_apply_gate_inplace", gate_spy)
    monkeypatch.setattr(qsa, "apply_circuit", probe_spy)
    rng = np.random.default_rng(5)
    db = random_database(n, "floor", rng)
    target = random_target(n, rng)
    loader = calibrated_loader(db, requested, 17)
    run_qsa(loader, db, target, QsaConfig(shots=256, rng_seed=3, blind=blind))
    mixing = sum(gate.kind not in ("X", "Z") for circuit in probes for gate in circuit.gates)
    assert probes and 0 < len(sizes) == mixing
    assert max(sizes) <= 1 << n
