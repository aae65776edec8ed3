"""Probes start from the loaded data block, with the gate-level amplitudes.

``run_qsa`` runs each probe as one ``run_circuit`` of its whole search
circuit. That starts from the basis state |0, t, 0> the target load writes,
and the loader fills the one block of 2^n amplitudes at |., t, 0>; every
later stretch of the loader's gates goes to the rows that hold amplitude alone.
Everything here is compared with ``np.array_equal`` or ``==`` and no
tolerance, against the kernel's per-gate update on the whole register: the
shortcuts repeat that arithmetic, so only the sign of a zero may differ.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import qsalign.qsa as qsa
from qsalign import simcore
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
    target_loader,
)
from qsalign.simcore import Circuit, basis_state, concat, run_circuit, sample_counts


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


def _gate_by_gate(circuit):
    """The circuit on |0...0>, each gate one kernel update of the whole register."""
    tensor = basis_state(circuit.num_qubits, 0).amplitudes.reshape((2,) * circuit.num_qubits)
    for gate in circuit.gates:
        simcore._apply_gate_inplace(tensor, gate)
    return tensor.reshape(-1)


def _assert_probes_start_from_the_loaded_block(db, target, loader, p_max=3):
    layout = RegisterLayout(db.n)
    prep = initialisation_unitary(loader, target, layout)
    load = concat(target_loader(target, layout), Circuit(layout.total, loader.gates))
    assert prep.gates[:len(load.gates)] == load.gates
    # the target load and the loader leave the loader's n-qubit state in the
    # block of 2^n amplitudes from |0, t, 0> on, and zeros elsewhere
    block = np.zeros(1 << layout.total, dtype=np.complex128)
    start = layout.pack_index(0, int(target.bits, 2), 0)
    block[start:start + (1 << layout.n)] = run_circuit(loader).amplitudes
    assert np.array_equal(run_circuit(load).amplitudes, block)
    assert np.array_equal(_gate_by_gate(load), block)
    for delta in range(db.n + 1):
        for p in range(p_max + 1):
            circuit = search_circuit(prep, phase_oracle(layout, delta), p)
            got = run_circuit(circuit).amplitudes
            assert np.array_equal(got, _gate_by_gate(circuit)), (delta, p)


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


def _gate_level_run_qsa(db_loader, db, target, config):
    """``run_qsa`` written out again, its acceptance rule as a max over (count, -index)."""
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
                match = max(hits)[2]
                return result(match, degraded=distance[match] > min(distance.values()))
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
    # the single all-zero entry loads with no gate at all
    empty = Database(4, ("0000",))
    loader = exact_loader(empty)
    for t in range(16):
        target = TargetSequence(format(t, "04b"))
        config = QsaConfig(shots=64, repeats=repeats, blind=blind, rng_seed=t)
        assert run_qsa(loader, empty, target, config) == _gate_level_run_qsa(
            loader, empty, target, config
        )


@pytest.mark.parametrize("blind", [False, True])
@pytest.mark.parametrize("kind", ["1.0", "0.7", "short_ga"])
def test_probe_loader_gates_touch_only_the_loaded_block(monkeypatch, kind, blind):
    # a probe's state lives in the 2^n-amplitude row of |., t, 0> whenever
    # it loads, undoes or redoes the loader, so each of the loader's gates,
    # its X gates included, must see that row alone, never the 2^(2n+k)
    # amplitudes of the whole register, whether it goes gate by gate or
    # in one level's multiplexed update
    n = 5
    rng = np.random.default_rng(5)
    db = random_database(n, "floor", rng)
    target = random_target(n, rng)
    # the diffusion's sign flip puts an X gate on data qubit 0 for t = 0 alone
    assert "1" in target.bits
    if kind == "short_ga":
        # CNOTs alone or in pairs between rotations: X runs that are not
        # applied as one signed permutation, so they go gate by gate
        ga = GaConfig(population_size=8, max_generations=3, rng_seed=21)
        loader = calibrated_loader(db, 0.7, 21, ga)
        kinds = "".join(gate.kind[0] for gate in strip_diagonal_tail(loader).gates)
        assert "X" in kinds and "XXX" not in kinds and kinds[0] != "X" != kinds[-1]
    else:
        loader = calibrated_loader(db, float(kind), 17)
    sizes, probes = [], []
    kernel, level_kernel = simcore._apply_gate_inplace, simcore._apply_level

    def gate_spy(tensor, gate):
        if probes and gate.max_qubit < n:
            sizes.append(tensor.size)
        kernel(tensor, gate)

    def level_spy(tensor, level, prefixes):
        # one multiplexed update applies every gate of a level at once
        if probes and level[0].max_qubit < n:
            sizes.extend([tensor.size] * len(level))
        level_kernel(tensor, level, prefixes)

    def probe_spy(circuit):
        probes.append(circuit)
        return simcore.run_circuit(circuit)

    monkeypatch.setattr(simcore, "_apply_gate_inplace", gate_spy)
    monkeypatch.setattr(simcore, "_apply_level", level_spy)
    monkeypatch.setattr(qsa, "run_circuit", probe_spy)
    run_qsa(loader, db, target, QsaConfig(shots=256, rng_seed=3, blind=blind))
    # only the loader's gates, and their inverses, act on the data qubits alone
    loader_gates = sum(gate.max_qubit < n for circuit in probes for gate in circuit.gates)
    assert probes and 0 < len(sizes) == loader_gates
    assert max(sizes) <= 1 << n
