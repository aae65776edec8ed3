"""Gate semantics, circuit algebra, sampling, and serialization."""
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsalign.simcore import (
    GATE_KINDS,
    ROTATION_KINDS,
    Circuit,
    Gate,
    Statevector,
    apply_circuit,
    basis_state,
    cnot,
    concat,
    fidelity,
    h,
    invert,
    parse_circuit,
    run_circuit,
    run_sequences,
    rx,
    ry,
    rz,
    sample_counts,
    serialize_circuit,
    x,
    z,
)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("Y", 0)
    with pytest.raises(ValueError):
        Gate("RX", 0)  # rotation without an angle
    with pytest.raises(ValueError):
        Gate("X", 0, angle=0.5)
    with pytest.raises(ValueError, match="unknown gate kind 'CNOT'"):
        Gate("CNOT", 1, ((0, 1),))  # a controlled X is kind X
    with pytest.raises(ValueError):
        Gate("X", 0, controls=((0, 1),))  # control overlaps target
    with pytest.raises(ValueError, match="RY angle must be finite, got nan"):
        Gate("RY", 0, (), float("nan"))


def test_gate_matrix_fixed_at_construction():
    theta = 0.7368
    gate = ry(1, theta, controls=((0, 0),))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.array_equal(gate.matrix, [[c, -s], [s, c]])
    assert gate.max_qubit == 1
    with pytest.raises(ValueError):
        gate.matrix[0, 0] = 1.0  # read-only
    # the matrix is derived data: equality, hashing and copies ignore it
    again = pickle.loads(pickle.dumps(gate))
    assert again == gate and hash(again) == hash(gate)
    assert np.array_equal(again.matrix, gate.matrix) and not again.matrix.flags.writeable
    with pytest.raises(ValueError):
        Gate("X", -1)
    with pytest.raises(ValueError, match=r"touches qubits \[3\] outside \[0, 2\)"):
        Circuit(2, (x(3, controls=((1, 1),)),))
    with pytest.raises(ValueError, match=r"touches qubits \[2\] outside \[0, 2\)"):
        apply_circuit(basis_state(2, 0), Circuit(2, (x(0, controls=((2, 1),)),)))


def test_rz_coefficients_are_the_bytes_of_numpy_complex_exp():
    # RZ packs math.cos and math.sin of angle/2; its bytes must equal those
    # of numpy's exp(-0.5j * angle) and exp(0.5j * angle), signed zeros
    # included: at angle -0.0, exp's u11 has imaginary part +0.0, where
    # sin(-0.0) is -0.0
    rng = np.random.default_rng(11)
    angles = [0.0, -0.0, math.pi, -math.pi, 5e-324, -5e-324]
    angles += rng.uniform(-4 * math.pi, 4 * math.pi, 20000).tolist()
    angles += (rng.choice([-1.0, 1.0], 2000) * np.exp(rng.uniform(0.0, 700.0, 2000))).tolist()
    for angle in angles:
        u00, u11 = np.exp(-0.5j * angle), np.exp(0.5j * angle)
        expected = struct.pack("8d", u00.real, u00.imag, 0, 0, 0, 0, u11.real, u11.imag)
        assert rz(0, angle)._coefficients == expected, angle.hex()


def test_qubit_zero_is_least_significant():
    state = apply_circuit(basis_state(3, 0), Circuit(3, (x(0),)))
    assert np.isclose(abs(state.amplitudes[1]), 1.0)
    state = apply_circuit(basis_state(3, 0), Circuit(3, (x(2),)))
    assert np.isclose(abs(state.amplitudes[4]), 1.0)


def test_hadamard_and_z():
    plus = apply_circuit(basis_state(1, 0), Circuit(1, (h(0),)))
    assert np.allclose(plus.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    back = apply_circuit(plus, Circuit(1, (h(0),)))
    assert np.allclose(back.amplitudes, [1, 0], atol=1e-12)
    minus = apply_circuit(plus, Circuit(1, (z(0),)))
    assert np.allclose(minus.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_rotation_matrices():
    # RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
    theta = 0.7368
    state = apply_circuit(basis_state(1, 0), Circuit(1, (ry(0, theta),)))
    assert np.allclose(state.amplitudes, [math.cos(theta / 2), math.sin(theta / 2)])
    # RX(pi) acts as X up to global phase
    state = apply_circuit(basis_state(1, 0), Circuit(1, (rx(0, math.pi),)))
    assert np.isclose(abs(state.amplitudes[1]), 1.0)
    # RZ only phases
    state = apply_circuit(basis_state(1, 0), Circuit(1, (h(0), rz(0, theta))))
    assert np.allclose(np.abs(state.amplitudes) ** 2, [0.5, 0.5])


def test_cnot_truth_table():
    for a in range(2):
        for b in range(2):
            start = basis_state(2, a | (b << 1))
            out = apply_circuit(start, Circuit(2, (cnot(0, 1),)))  # control qubit 0, target qubit 1
            expected = a | ((b ^ a) << 1)
            assert np.isclose(abs(out.amplitudes[expected]), 1.0)


def test_polarity_controls():
    # fires only when qubit 0 is 1 and qubit 1 is 0
    gate = x(2, controls=((0, 1), (1, 0)))
    for idx in range(8):
        out = apply_circuit(basis_state(3, idx), Circuit(3, (gate,)))
        fires = (idx & 1) and not (idx >> 1 & 1)
        expected = idx ^ (4 if fires else 0)
        assert np.isclose(abs(out.amplitudes[expected]), 1.0), idx


def test_mcx_and_mcz_exhaustive():
    gate_x = x(2, ((0, 1), (1, 1)))
    gate_z = z(2, ((0, 1), (1, 1)))
    for idx in range(8):
        out_x = apply_circuit(basis_state(3, idx), Circuit(3, (gate_x,)))
        both = (idx & 3) == 3
        assert np.isclose(abs(out_x.amplitudes[idx ^ (4 if both else 0)]), 1.0)
        out_z = apply_circuit(basis_state(3, idx), Circuit(3, (gate_z,)))
        sign = -1.0 if idx == 7 else 1.0
        assert np.isclose(out_z.amplitudes[idx], sign)


def test_random_circuit_preserves_norm_and_inverts():
    rng = np.random.default_rng(11)
    gates = []
    for _ in range(40):
        kind = rng.integers(5)
        q = int(rng.integers(4))
        if kind == 0:
            gates.append(h(q))
        elif kind == 1:
            gates.append(x(q))
        elif kind == 2:
            gates.append(ry(q, float(rng.uniform(0, 2 * math.pi))))
        elif kind == 3:
            gates.append(rz(q, float(rng.uniform(0, 2 * math.pi))))
        else:
            t = int(rng.integers(4))
            if t != q:
                gates.append(cnot(q, t))
    circuit = Circuit(4, tuple(gates))
    state = run_circuit(circuit)
    assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)
    back = apply_circuit(state, invert(circuit))
    assert np.allclose(back.amplitudes, basis_state(4, 0).amplitudes, atol=1e-12)


def test_concat_and_width_checks():
    a = Circuit(2, (x(0),))
    b = Circuit(2, (cnot(0, 1),))
    joined = concat(a, b)
    assert len(joined.gates) == 2
    with pytest.raises(ValueError):
        concat(a, Circuit(3, ()))
    with pytest.raises(ValueError):
        apply_circuit(basis_state(3, 0), a)
    with pytest.raises(ValueError):
        Circuit(2, (x(5),))


def _gate_arrays(gates):
    select = np.frombuffer(b"".join([g._select for g in gates]), np.int64).reshape(-1, 4)
    coefficients = np.frombuffer(b"".join([g._coefficients for g in gates]), np.complex128)
    return select, coefficients.reshape(-1, 2, 2)


def test_run_sequences_range_check_matches_circuit():
    # the batched runner refuses the gates a circuit refuses, from their
    # packed rows alone, and names the gate's place in the batch
    for gate in (x(2), cnot(3, 0), cnot(0, 3), z(1, ((0, 1), (4, 0)))):
        with pytest.raises(ValueError, match="outside"):
            Circuit(2, (h(0), gate))
        with pytest.raises(ValueError, match=r"gate 2 touches a qubit outside \[0, 2\)"):
            run_sequences(2, *_gate_arrays([h(0), h(1), gate]), [1, 2])
    select, coefficients = _gate_arrays([h(0), h(1), cnot(0, 1)])
    assert run_sequences(2, select, coefficients, [1, 2]).shape == (2, 4)
    # arrays that disagree on the gate count are refused
    for lengths in ([1, 1], [2, 2], [4, -1]):
        with pytest.raises(ValueError, match="for sequences of"):
            run_sequences(2, select, coefficients, lengths)
    with pytest.raises(ValueError, match="for sequences of"):
        run_sequences(2, select[:2], coefficients, [1, 2])
    empty = run_sequences(2, *_gate_arrays([]), [0, 0])
    assert np.array_equal(empty, [[1, 0, 0, 0], [1, 0, 0, 0]])
    assert run_sequences(3, *_gate_arrays([]), []).shape == (0, 8)


def test_basis_state_bounds():
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, -1)
    with pytest.raises(ValueError):
        Circuit(0, ())


def test_sample_counts_deterministic_and_consistent():
    state = apply_circuit(basis_state(2, 0), Circuit(2, (h(0), h(1))))
    counts = sample_counts(state, 4096, 7)
    assert sum(counts.values()) == 4096
    assert counts == sample_counts(state, 4096, 7)
    assert counts != sample_counts(state, 4096, 8)
    # uniform state: every outcome near 1024, keyed by basis index in order
    assert list(counts) == [0, 1, 2, 3]
    assert all(type(k) is int and type(c) is int for k, c in counts.items())
    assert all(abs(c - 1024) < 200 for c in counts.values())


def test_sample_counts_skips_zero_probability():
    state = apply_circuit(basis_state(2, 0), Circuit(2, (h(0),)))  # support on 0 and 1 only
    counts = sample_counts(state, 2000, 3)
    assert list(counts) == [0, 1]
    assert sum(counts.values()) == 2000
    # six scattered basis states of five qubits: keys ascend over the gaps
    support = [3, 7, 12, 18, 25, 30]
    amps = np.zeros(32, dtype=complex)
    amps[support] = [0.1, 0.5, 0.2, 0.6, 0.3, 0.5]
    amps /= np.linalg.norm(amps)
    for seed in range(5):
        counts = sample_counts(Statevector(5, amps), 300, seed)
        assert list(counts) == sorted(counts) and set(counts) <= set(support)
        assert all(type(k) is int for k in counts)
        assert sum(counts.values()) == 300


def test_fidelity():
    a = basis_state(2, 0)
    b = basis_state(2, 1)
    assert fidelity(a, a) == 1.0
    assert fidelity(a, b) == 0.0
    plus = apply_circuit(basis_state(1, 0), Circuit(1, (h(0),)))
    assert np.isclose(fidelity(plus, basis_state(1, 0)), 0.5)
    with pytest.raises(ValueError):
        fidelity(a, basis_state(3, 0))


def test_global_phase_invisible_to_fidelity():
    amps = np.exp(1j * 0.321) * basis_state(2, 0).amplitudes
    assert np.isclose(fidelity(Statevector(2, amps), basis_state(2, 0)), 1.0)


def test_serialize_parse_roundtrip():
    circuit = Circuit(
        3,
        (
            h(0),
            x(1, controls=((0, 0),)),
            ry(2, 1.234567890123456),
            z(2, ((0, 1), (1, 0))),
            cnot(1, 2),
        ),
    )
    again = parse_circuit(serialize_circuit(circuit))
    assert again == circuit
    # angles roundtrip exactly through repr
    state_a = run_circuit(circuit)
    state_b = run_circuit(again)
    assert np.array_equal(state_a.amplitudes, state_b.amplitudes)


@pytest.mark.parametrize("num_controls", range(4))
@pytest.mark.parametrize("kind", sorted(GATE_KINDS))
@settings(max_examples=20)
@given(data=st.data())
def test_serialize_parse_roundtrip_every_kind(kind, num_controls, data):
    # parametrised so that every kind meets every control count, which a
    # derandomised draw of both need not do
    qubits = data.draw(st.permutations(range(5)))
    polarities = data.draw(st.lists(st.integers(0, 1), min_size=num_controls,
                                     max_size=num_controls))
    angle = None
    if kind in ROTATION_KINDS:
        angle = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    gate = Gate(kind, qubits[0], tuple(zip(qubits[1:], polarities)), angle)
    circuit = Circuit(5, (gate, h(qubits[-1]), gate))
    assert parse_circuit(serialize_circuit(circuit)) == circuit


def test_serialize_writes_each_gate_its_own_kind_and_one_target():
    gates = (
        x(0),
        cnot(0, 1),
        x(1, ((0, 0),)),
        x(2, ((0, 1), (1, 1))),
        z(2, ((1, 0), (0, 1))),
        ry(1, 0.5, ((0, 1),)),
    )
    assert serialize_circuit(Circuit(3, gates)).splitlines() == [
        "qubits=3",
        "X target=0",
        "X target=1 controls=0:1",
        "X target=1 controls=0:0",
        "X target=2 controls=0:1,1:1",
        "Z target=2 controls=1:0,0:1",
        "RY target=1 controls=0:1 angle=0.5",
    ]


@pytest.mark.parametrize(
    "text, match",
    [
        ("qubits=2\nCNOT target=1 controls=0:1\n", "line 2 .*unknown gate kind 'CNOT'"),
        ("qubits=3\nMCX target=2 controls=0:1,1:0\n", "line 2 .*unknown gate kind 'MCX'"),
        ("qubits=3\nMCZ target=0 controls=2:1\n", "line 2 .*unknown gate kind 'MCZ'"),
        ("qubits=2\nH target=1\nX targets=[0] controls=[]\n", "line 3 .*target="),
        ("qubits=2\nX target=0 phase=1\n", "line 2 .*target="),
        ("qubits=2\nRY controls=0:1 angle=0.5\n", "line 2 .*target="),
        ("qubits=2\nX target=2\n", "line 2 .*outside"),
        ("\nqubits=x\n", "line 2 "),
        ("X target=0\n", "header"),
        (f"qubits={2**70}\nX target={2**70 - 1}\n", "line 1 .*at most 63 qubits"),
        (f"qubits={10**8}\nX target={10**8 - 1}\n", "line 1 .*at most 63 qubits"),
        ("qubits=1\nRY target=0 angle=nan\n", "line 2 .*angle must be finite, got nan"),
        ("qubits=1\nRX target=0 angle=inf\n", "line 2 .*angle must be finite, got inf"),
        ("qubits=1\nRZ target=0 angle=1e400\n", "line 2 .*angle must be finite, got inf"),
    ],
    ids=["cnot", "mcx", "mcz", "target_list", "unknown_field", "no_target", "out_of_range",
         "bad_header", "no_header", "header_past_an_index", "header_past_a_control_mask",
         "nan", "inf", "1e400"],
)
def test_parse_refuses_text_the_writer_never_writes(text, match):
    with pytest.raises(ValueError, match=match):
        parse_circuit(text)


# every character the syntax uses, and whole tokens, so that near-miss lines
# come up often
_SYNTAX = st.text("XZHRYtargecoln=:,.-+0123456789 \n", max_size=8) | st.sampled_from(
    ["X ", "RY ", "CNOT ", "target=", "controls=", "angle=", "targets=[0]", "1", "0:1", "\n"]
)


@settings(max_examples=500)
@given(body=st.lists(_SYNTAX, max_size=12).map("".join))
def test_parse_returns_a_circuit_or_raises_value_error(body):
    try:
        circuit = parse_circuit("qubits=3\n" + body)
    except ValueError:
        return
    assert isinstance(circuit, Circuit)


@pytest.mark.parametrize("kind", ["CNOT", "MCX", "MCZ"])
def test_gate_refuses_the_retired_kinds(kind):
    with pytest.raises(ValueError, match=f"unknown gate kind '{kind}'"):
        Gate(kind, 1, ((0, 1),))


@pytest.mark.parametrize("controls", [(0,), ((0,),), ((0, 1, 1),), ("01",)])
def test_gate_refuses_controls_that_are_not_pairs(controls):
    with pytest.raises(ValueError, match="pair"):
        x(2, controls)


@pytest.mark.parametrize("targets", ["[]", "[0,1]"])
def test_parse_refuses_a_gate_without_exactly_one_target(targets):
    with pytest.raises(ValueError, match="line 2 "):
        parse_circuit(f"qubits=2\nX target={targets}\n")
