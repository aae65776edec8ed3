"""Probes start from the loaded data block, with the gate-level amplitudes.

``run_qsa`` runs each probe as one ``run_circuit`` of its whole search
circuit. That starts from the basis state |0, t, 0> the target load writes,
and the loader fills the one block of 2^n amplitudes at |., t, 0>; every
later stretch of the loader's gates goes to the rows that hold amplitude alone.
Everything here is compared with ``np.array_equal`` or ``==`` and no
tolerance, against the kernel's per-gate update on the whole register: the
shortcuts repeat that arithmetic, so only the sign of a zero may differ.
"""
import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from qsalign import simcore
from qsalign.experiments import calibrated_loader, random_database, random_target
from qsalign.gasp import GaConfig
from qsalign.grover import phase_oracle, search_circuit
from qsalign.registers import (
    RegisterLayout,
    exact_loader,
    initialisation_unitary,
    target_loader,
)
from qsalign.simcore import Circuit, basis_state, concat, run_circuit


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
