"""Encoding, register layout, and initialisation circuit construction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsalign.registers import (
    Alphabet,
    Database,
    RegisterLayout,
    TargetSequence,
    database_state,
    encode_sequence,
    entangler,
    exact_loader,
    hamming,
    initialisation_unitary,
    popcount_operator,
    state_preparation_circuit,
    target_loader,
)
from qsalign.simcore import (
    Circuit,
    Statevector,
    apply_circuit,
    basis_state,
    fidelity,
    ry,
    run_circuit,
    rz,
    x,
    zero_state,
)

DNA = Alphabet(("A", "C", "G", "T"))


def test_alphabet_codes():
    assert DNA.bits_per_letter == 2
    assert DNA.code("A") == "00"
    assert DNA.code("T") == "11"
    with pytest.raises(ValueError):
        DNA.code("X")
    with pytest.raises(ValueError):
        Alphabet(("A",))
    with pytest.raises(ValueError):
        Alphabet(("A", "A"))


def test_encode_sequence():
    assert encode_sequence("ACGT", DNA) == "00011011"
    assert encode_sequence("TGCA", DNA) == "11100100"
    assert encode_sequence("", DNA) == ""
    # three letters still need two bits each
    abc = Alphabet(("a", "b", "c"))
    assert encode_sequence("cab", abc) == "100001"


def test_database_validation():
    db = Database(3, ("101", "010"))
    assert db.size == 2
    with pytest.raises(ValueError):
        Database(3, ())
    with pytest.raises(ValueError):
        Database(3, ("101", "01"))
    with pytest.raises(ValueError):
        Database(3, ("101", "101"))
    with pytest.raises(ValueError):
        Database(3, ("10a",))


def test_database_from_bitstrings_dedup():
    db = Database.from_bitstrings(["101", "010", "101"])
    assert db.entries == ("101", "010")
    assert db.n == 3
    with pytest.raises(ValueError):
        Database.from_bitstrings([])


def test_target_validation():
    assert TargetSequence("0110").bits == "0110"
    with pytest.raises(ValueError):
        TargetSequence("01x0")
    with pytest.raises(ValueError):
        TargetSequence("")


def test_hamming():
    assert hamming("101", "101") == 0
    assert hamming("101", "010") == 3
    assert hamming("1100", "1010") == 2
    with pytest.raises(ValueError):
        hamming("10", "100")
    # symmetry over all 4-bit pairs
    for a in range(16):
        for b in range(16):
            sa, sb = format(a, "04b"), format(b, "04b")
            assert hamming(sa, sb) == hamming(sb, sa) == bin(a ^ b).count("1")


def test_register_layout_shapes():
    # distance register must hold values 0..n
    for n, k in [(3, 2), (4, 3), (7, 3), (8, 4)]:
        layout = RegisterLayout(n)
        assert layout.k == k
        assert layout.total == 2 * n + k
        assert layout.data == range(0, n)
        assert layout.sample == range(n, 2 * n)
        assert layout.distance == range(2 * n, 2 * n + k)


def test_pack_split_roundtrip():
    layout = RegisterLayout(3)
    for d in range(8):
        for s in range(8):
            for hv in range(4):
                idx = layout.pack_index(d, s, hv)
                assert (idx & 7, (idx >> 3) & 7, idx >> 6) == (d, s, hv)
    assert layout.pack_index(5, 2, 1) == 5 | (2 << 3) | (1 << 6)


def test_outcome_bit_slices():
    # an outcome is a full-register basis index; its low n bits are the data
    layout = RegisterLayout(3)
    assert layout.data_index(0b01_010_101) == 0b101
    for d in range(8):
        for s in range(8):
            for hv in range(4):
                assert layout.data_index(layout.pack_index(d, s, hv)) == d


def test_database_state_amplitudes():
    db = Database(3, ("101", "010", "000"))
    state = database_state(db)
    expected = np.zeros(8)
    for e in db.entries:
        expected[int(e, 2)] = 1 / math.sqrt(3)
    assert np.allclose(state.amplitudes, expected)


def test_state_preparation_circuit_random_states():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            target = Statevector(n, amps)
            prepared = run_circuit(state_preparation_circuit(target))
            assert fidelity(prepared, target) > 1 - 1e-12


def test_state_preparation_handles_zeros():
    # amplitudes with exact zeros must not divide by zero
    amps = np.zeros(8, dtype=complex)
    amps[3] = 1.0
    prepared = run_circuit(state_preparation_circuit(Statevector(3, amps)))
    assert fidelity(prepared, Statevector(3, amps)) > 1 - 1e-12


def _reference_state_preparation(state):
    # the per-branch construction: every prefix of every level visited in
    # Python, each gate built from its control list
    n = state.num_qubits
    amps = state.amplitudes
    probs = np.abs(amps) ** 2
    gates = []
    for j in range(n - 1, -1, -1):
        marginal = probs.reshape(1 << (n - 1 - j), 2, 1 << j).sum(axis=2)
        for v in range(marginal.shape[0]):
            p0, p1 = marginal[v]
            if p0 + p1 <= 1e-14 or p1 <= 1e-14:
                continue
            theta = 2.0 * math.atan2(math.sqrt(p1), math.sqrt(p0))
            gates.append(ry(j, theta, [(j + 1 + t, (v >> t) & 1) for t in range(n - 1 - j)]))
    phases = np.where(np.abs(amps) > 1e-12, np.angle(amps), 0.0)
    if np.max(np.abs(phases)) > 1e-12:
        level = phases.copy()
        for j in range(n):
            pairs = level.reshape(-1, 2)
            for v in range(pairs.shape[0]):
                delta = pairs[v, 1] - pairs[v, 0]
                if abs(delta) > 1e-12:
                    controls = [(j + 1 + t, (v >> t) & 1) for t in range(n - 1 - j)]
                    gates.append(rz(j, delta, controls))
            level = pairs.mean(axis=1)
    return Circuit(n, tuple(gates))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["sparse", "dense", "phased"]),
)
def test_state_preparation_equals_the_per_branch_construction(n, seed, kind):
    rng = np.random.default_rng(seed)
    dim = 1 << n
    if kind == "sparse":
        amps = np.zeros(dim, dtype=complex)
        amps[rng.choice(dim, size=int(rng.integers(1, dim + 1)) // 2 or 1, replace=False)] = 1.0
    else:
        amps = np.abs(rng.normal(size=dim)).astype(complex)
        if kind == "phased":
            amps *= np.exp(2j * np.pi * rng.random(dim))
    state = Statevector(n, amps / np.linalg.norm(amps))
    circuit, reference = state_preparation_circuit(state), _reference_state_preparation(state)
    # == compares angles as floats, so hex also tells -0.0 from 0.0
    assert circuit == reference
    assert [g.angle.hex() for g in circuit.gates] == [g.angle.hex() for g in reference.gates]


def test_exact_loader_matches_database_state():
    db = Database(4, ("0011", "1100", "0110", "1111", "0000"))
    assert fidelity(run_circuit(exact_loader(db)), database_state(db)) > 1 - 1e-12


def test_target_loader_writes_sample_register():
    layout = RegisterLayout(3)
    state = run_circuit(target_loader(TargetSequence("110"), layout))
    # expect |S> in the sample block, data and distance still zero
    assert np.isclose(abs(state.amplitudes[layout.pack_index(0, 0b110, 0)]), 1.0)


def test_entangler_xor():
    layout = RegisterLayout(3)
    circuit = entangler(layout)
    for d in range(8):
        for s in range(8):
            out = apply_circuit(basis_state(layout.total, layout.pack_index(d, s, 0)), circuit)
            assert np.isclose(abs(out.amplitudes[layout.pack_index(d, s ^ d, 0)]), 1.0)


def test_popcount_exhaustive_small():
    layout = RegisterLayout(3)
    circuit = popcount_operator(layout)
    for s in range(8):
        start = basis_state(layout.total, layout.pack_index(0, s, 0))
        out = apply_circuit(start, circuit)
        expected = layout.pack_index(0, s, bin(s).count("1"))
        assert np.isclose(abs(out.amplitudes[expected]), 1.0)


def _reference_popcount(layout):
    # the full chain: every incrementer runs all k carries
    dist = list(layout.distance)
    gates = [
        x(dist[m], [(s, 1)] + [(dist[t], 1) for t in range(m)])
        for s in layout.sample
        for m in range(layout.k - 1, -1, -1)
    ]
    return Circuit(layout.total, tuple(gates))


@pytest.mark.parametrize("n", range(1, 9))
def test_short_popcount_maps_every_sample_as_the_full_chain(n):
    # the i-th incrementer meets a count of at most i - 1, so the carries it
    # drops could never fire on |s, 0>: one labelled run over every s
    layout = RegisterLayout(n)
    circuit = popcount_operator(layout)
    assert len(circuit) == sum(min(layout.k, i.bit_length()) for i in range(1, n + 1))
    rng = np.random.default_rng(n)
    amps = np.zeros(1 << layout.total, dtype=complex)
    amps[layout.pack_index(0, np.arange(1 << n), 0)] = np.exp(2j * np.pi * rng.random(1 << n))
    state = Statevector(layout.total, amps)
    got = apply_circuit(state, circuit).amplitudes
    assert np.array_equal(got, apply_circuit(state, _reference_popcount(layout)).amplitudes)
    weights = np.array([bin(s).count("1") for s in range(1 << n)])
    expected = np.zeros_like(amps)
    expected[layout.pack_index(0, np.arange(1 << n), weights)] = amps[amps != 0]
    assert np.array_equal(got, expected)


def test_popcount_is_permutation():
    # applying twice must not double-count: |h> add popcount is a permutation,
    # so a second pass on a nonzero distance register stays reversible
    layout = RegisterLayout(3)
    circuit = popcount_operator(layout)
    state = zero_state(layout.total)
    for s in (0b101, 0b111):
        start = basis_state(layout.total, layout.pack_index(0, s, 0))
        once = apply_circuit(start, circuit)
        assert np.isclose(np.linalg.norm(once.amplitudes), 1.0)


def test_initialisation_unitary_hand_example():
    db = Database(3, ("101", "010"))
    layout = RegisterLayout(3)
    state = run_circuit(initialisation_unitary(exact_loader(db), TargetSequence("111"), layout))
    # branch D=101: sample 010, distance 1; branch D=010: sample 101, distance 2
    i1 = layout.pack_index(0b101, 0b010, 1)
    i2 = layout.pack_index(0b010, 0b101, 2)
    assert np.isclose(abs(state.amplitudes[i1]) ** 2, 0.5)
    assert np.isclose(abs(state.amplitudes[i2]) ** 2, 0.5)
    others = np.delete(np.abs(state.amplitudes) ** 2, [i1, i2])
    assert np.allclose(others, 0.0, atol=1e-24)


def test_initialisation_unitary_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(3, 5))
        layout = RegisterLayout(n)
        size = int(rng.integers(2, 6))
        values = rng.choice(1 << n, size=size, replace=False)
        db = Database(n, tuple(format(int(v), f"0{n}b") for v in values))
        target = format(int(rng.integers(1 << n)), f"0{n}b")
        state = run_circuit(
            initialisation_unitary(exact_loader(db), TargetSequence(target), layout)
        )
        expected = np.zeros(1 << layout.total, dtype=complex)
        for e in db.entries:
            d = int(e, 2)
            s = d ^ int(target, 2)
            expected[layout.pack_index(d, s, bin(s).count("1"))] = 1 / math.sqrt(size)
        assert abs(np.vdot(expected, state.amplitudes)) ** 2 > 1 - 1e-10
