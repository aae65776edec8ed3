"""Property tests: the gate kernels against their references.

The reference below is the earlier kernel, which built full-length boolean
masks over every basis index and gathered both halves by fancy indexing.
The view kernel must repeat its arithmetic exactly, and the batched runner
must repeat the view kernel's, so results are compared with
``np.array_equal`` and no tolerance.
"""
import sys
from concurrent.futures import ThreadPoolExecutor
from math import cos, pi, sin

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsalign import simcore
from qsalign.experiments import calibrated_loader, random_database, random_target
from qsalign.gasp import GaConfig
from qsalign.grover import phase_oracle, search_circuit
from qsalign.qsa import QsaConfig, run_qsa, strip_diagonal_tail
from qsalign.registers import (
    Database,
    RegisterLayout,
    TargetSequence,
    exact_loader,
    initialisation_unitary,
)
from qsalign.simcore import (
    GATE_KINDS,
    ROTATION_KINDS,
    Circuit,
    Gate,
    Statevector,
    apply_circuit,
    cnot,
    parse_circuit,
    run_circuit,
    run_sequences,
    serialize_circuit,
    x,
)

_SQRT2_INV = 1.0 / np.sqrt(2.0)


def _reference_rotation(kind, angle):
    c, s = cos(angle / 2.0), sin(angle / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    return np.array([[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=np.complex128)


def _reference_apply(amps, num_qubits, gate):
    """The mask kernel, in place on a contiguous amplitude array."""
    target = gate.target
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    cmask = None
    if gate.controls:
        cmask = np.ones(idx.shape, dtype=bool)
        for q, pol in gate.controls:
            cmask &= ((idx >> q) & 1) == pol

    if gate.kind == "Z":
        mask = ((idx >> target) & 1) == 1
        if cmask is not None:
            mask &= cmask
        amps[mask] *= -1.0
        return

    mask0 = ((idx >> target) & 1) == 0
    if cmask is not None:
        mask0 &= cmask
    i0 = np.nonzero(mask0)[0]
    i1 = i0 | (1 << target)

    if gate.kind == "X":
        tmp = amps[i0].copy()
        amps[i0] = amps[i1]
        amps[i1] = tmp
        return

    if gate.kind == "H":
        u = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=np.complex128)
    else:
        u = _reference_rotation(gate.kind, gate.angle)
    a = amps[i0].copy()
    b = amps[i1]
    amps[i0] = u[0, 0] * a + u[0, 1] * b
    amps[i1] = u[1, 0] * a + u[1, 1] * b


def _reference_circuit(amplitudes, circuit):
    out = np.array(amplitudes, dtype=np.complex128)
    for gate in circuit.gates:
        _reference_apply(out, circuit.num_qubits, gate)
    return out


@st.composite
def gates(draw, num_qubits, kinds=GATE_KINDS):
    """One gate of the given kinds, with 0 to num_qubits - 1 controls."""
    kind = draw(st.sampled_from(sorted(kinds)))
    order = draw(st.permutations(range(num_qubits)))
    count = draw(st.integers(0, num_qubits - 1))
    controls = tuple((q, draw(st.integers(0, 1))) for q in order[1 : 1 + count])
    angle = None
    if kind in ROTATION_KINDS:
        angle = draw(st.floats(-4 * pi, 4 * pi, allow_nan=False, allow_infinity=False))
    return Gate(kind, order[0], controls, angle)


@st.composite
def circuits(draw, max_qubits=10):
    num_qubits = draw(st.integers(1, max_qubits))
    gate_list = draw(st.lists(gates(num_qubits), min_size=1, max_size=12))
    return Circuit(num_qubits, tuple(gate_list))


_ANGLES = st.floats(-4 * pi, 4 * pi, allow_nan=False, allow_infinity=False) | st.integers(-12, 12)


def _random_amplitudes(num_qubits, seed, size=None):
    rng = np.random.default_rng(seed)
    size = size or (1 << num_qubits)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


@st.composite
def circuits_and_states(draw, max_qubits=10):
    """A circuit, and a state that is dense or zero outside some rows.

    ``apply_circuit`` applies a run of H and rotation gates, which acts
    within rows of 2^w amplitudes, to the rows that hold a nonzero
    amplitude alone, and a dense state never leaves a row all zero. So the
    state may instead be zero outside one, several or all of its rows of
    a drawn width, or hold one amplitude alone; and gates may act below a
    drawn reach, so that their runs stay inside rows of fewer than q
    qubits, or on any qubit, the top one included.
    """
    num_qubits = draw(st.integers(1, max_qubits))
    reach = draw(st.integers(1, num_qubits))
    gate_list = draw(st.lists(gates(reach) | gates(num_qubits), min_size=1, max_size=12))
    amps = _random_amplitudes(num_qubits, draw(st.integers(0, 2**32 - 1)))
    live = draw(st.sampled_from(["dense", "one row", "some rows", "one amplitude"]))
    if live == "one amplitude":
        index = draw(st.integers(0, (1 << num_qubits) - 1))
        amps[np.arange(len(amps)) != index] = 0.0
    elif live != "dense":
        rows = 1 << (num_qubits - draw(st.integers(0, num_qubits)))
        count = 1 if live == "one row" else draw(st.integers(1, rows))
        kept = draw(st.lists(st.integers(0, rows - 1), min_size=count, max_size=count,
                             unique=True))
        amps.reshape(rows, -1)[np.setdiff1d(np.arange(rows), kept)] = 0.0
    return Circuit(num_qubits, tuple(gate_list)), amps


def _one_row_case(*gate_list):
    """A state in the second of four rows of 4 amplitudes, on 4 qubits."""
    amps = np.zeros(16, dtype=np.complex128)
    amps[4:8] = _random_amplitudes(2, 12)
    return Circuit(4, gate_list), amps


@settings(max_examples=600, deadline=None)
@given(circuits_and_states())
# a run below the top qubit on one live row, then runs that touch the top
# qubit (w = q), alone and after an X gate
@example(_one_row_case(Gate("H", 0), Gate("RY", 1, ((0, 1),), 0.7)))
@example(_one_row_case(Gate("H", 3), Gate("RX", 0, ((3, 0),), 1.1)))
@example(_one_row_case(Gate("RZ", 2, (), 0.4), cnot(2, 3), Gate("H", 3)))
def test_circuit_matches_mask_kernel_exactly(case):
    circuit, amps = case
    out = apply_circuit(Statevector(circuit.num_qubits, amps), circuit)
    expected = _reference_circuit(amps, circuit)
    assert np.array_equal(out.amplitudes, expected)
    # a zero's sign may differ, never a probability's bits
    probabilities = np.abs(out.amplitudes) ** 2
    assert np.array_equal(probabilities.view(np.uint64), (np.abs(expected) ** 2).view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_single_gates_match_mask_kernel_exactly(circuit, seed):
    state = Statevector(circuit.num_qubits, _random_amplitudes(circuit.num_qubits, seed))
    for gate in circuit.gates:
        single = Circuit(circuit.num_qubits, (gate,))
        expected = _reference_circuit(state.amplitudes, single)
        state = apply_circuit(state, single)
        assert np.array_equal(state.amplitudes, expected)


@settings(max_examples=100, deadline=None)
@given(circuits(max_qubits=8), st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_inputs_never_mutated_even_when_strided(circuit, seed, step):
    n = circuit.num_qubits
    backing = _random_amplitudes(n, seed, size=step << n)
    pristine = backing.copy()
    strided = backing[::step]
    assert not strided.flags.c_contiguous
    state = Statevector(n, strided)
    expected = _reference_circuit(strided.copy(), circuit)

    out = apply_circuit(state, circuit)
    assert np.array_equal(out.amplitudes, expected)
    first = Circuit(n, circuit.gates[:1])
    single = apply_circuit(state, first)
    assert np.array_equal(single.amplitudes, _reference_circuit(strided.copy(), first))
    assert np.array_equal(backing, pristine)
    assert state.amplitudes is strided


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_circuit_text_roundtrip_is_exact(circuit):
    # every kind, controls at both polarities, angles through repr
    again = parse_circuit(serialize_circuit(circuit))
    assert again == circuit
    assert np.array_equal(run_circuit(again).amplitudes, run_circuit(circuit).amplitudes)


def _check_batch(num_qubits, sequences):
    states = run_sequences(num_qubits, sequences)
    assert states.shape == (len(sequences), 1 << num_qubits)
    for row, sequence in zip(states, sequences):
        expected = run_circuit(Circuit(num_qubits, tuple(sequence))).amplitudes
        assert np.array_equal(row, expected)


# the width is parametrised: drawn from 1..6 under the derandomised
# profile, widths come up very unevenly
@pytest.mark.parametrize("num_qubits", range(1, 7))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_batched_runner_matches_run_circuit_exactly(num_qubits, data):
    sequence = st.lists(gates(num_qubits), max_size=20)
    _check_batch(num_qubits, data.draw(st.lists(sequence, min_size=1, max_size=8)))


def test_batched_runner_matches_run_circuit_on_a_ga_shaped_batch():
    # what the synthesis scores each generation: about a hundred ragged
    # rotation/CNOT gene lists of up to 64 genes, children sharing gate
    # objects with their parents and carrying re-angled rotations
    rng = np.random.default_rng(9)
    num_qubits = 4

    def gene():
        kind = ("RX", "RY", "RZ", "CNOT")[rng.integers(4)]
        target, control = (int(q) for q in rng.permutation(num_qubits)[:2])
        if kind == "CNOT":
            return cnot(control, target)
        return Gate(kind, target, (), rng.uniform(0, 2 * pi))

    def polish(g):
        if g.angle is not None and rng.random() < 0.2:
            return g.with_angle(g.angle + rng.normal(0, 0.1))
        return g

    parents = [[], [gene() for _ in range(64)]]
    parents += [[gene() for _ in range(rng.integers(1, 65))] for _ in range(48)]
    children = []
    for _ in range(50):
        a, b = (parents[i] for i in rng.integers(len(parents), size=2))
        child = (a[: rng.integers(len(a) + 1)] + b[rng.integers(len(b) + 1) :])[:64]
        children.append([polish(g) for g in child])
    _check_batch(num_qubits, parents + children)


@pytest.mark.parametrize("kind", sorted(ROTATION_KINDS))
@settings(max_examples=100, deadline=None)
@given(angle=_ANGLES)
@example(angle=0.0)
@example(angle=-0.0)
@example(angle=4 * pi)
@example(angle=-4 * pi)
def test_rotation_matrix_bit_identical_to_reference(kind, angle):
    # compared as raw bits: np.array_equal cannot see a flipped signed zero,
    # such as -s * 1j written where the reference has -1j * s (real part
    # -0.0 rather than +0.0 for s > 0 on CPython 3.11)
    built = Gate(kind, 0, (), angle).matrix
    assert np.array_equal(built.view(np.uint64), _reference_rotation(kind, float(angle)).view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(gates), _ANGLES, st.booleans())
def test_with_angle_equals_a_freshly_built_rotation(gate, angle, source_matrix_built):
    if gate.kind not in ROTATION_KINDS:
        with pytest.raises(ValueError):
            gate.with_angle(angle)
        return
    if source_matrix_built:
        source_matrix = gate.matrix  # cached on the gate before re-angling
    before = dict(vars(gate))
    rebuilt = gate.with_angle(angle)
    fresh = Gate(gate.kind, gate.target, gate.controls, angle)
    assert rebuilt == fresh
    # the matrix is built lazily, so it is compared through the attribute,
    # as raw bits, and never taken over from the source gate
    assert "matrix" not in vars(rebuilt)
    assert rebuilt.matrix.tobytes() == fresh.matrix.tobytes()
    assert not rebuilt.matrix.flags.writeable
    if source_matrix_built:
        assert rebuilt.matrix is not source_matrix
    for name in ("kind", "target", "controls", "angle", "max_qubit", "_halves", "_select",
                 "_coefficients"):
        assert getattr(rebuilt, name) == getattr(fresh, name), name
    assert vars(rebuilt).keys() == vars(fresh).keys()
    assert type(rebuilt.angle) is float
    assert vars(gate) == before  # the original gate is untouched


# --- runs of X and Z gates applied as one signed permutation ---------------
# apply_circuit applies a run of three or more X and Z gates, with an X
# gate and a controlled gate among them, as one cached gather and
# negation; these circuits put such runs, the palindromes among them that
# only negate, and runs that go gate by gate between gates that mix
# amplitudes.

_X_KINDS = frozenset({"X"})
_Z_KINDS = frozenset({"Z"})
_MIXING_KINDS = GATE_KINDS - _X_KINDS - _Z_KINDS


@st.composite
def sandwich_circuits(draw, max_qubits=8):
    """Mixing gates, a run of X and Z gates, mixing gates.

    The run is A, D, reversed(A), with A one or more X gates with controls
    at both polarities and D zero or more Z gates, so it cancels to a sign
    flip; or a variation of it: an odd palindrome, the palindrome with one
    gate changed, Z gates alone, the palindrome split by a mixing gate
    into a run ending at it and one starting after it, or X and Z gates in
    any order and number, which mostly move
    amplitudes along cycles longer than two.
    """
    num_qubits = draw(st.integers(2, max_qubits))
    mixing = st.lists(gates(num_qubits, _MIXING_KINDS), max_size=3)
    moves = draw(st.lists(gates(num_qubits, _X_KINDS), min_size=1, max_size=6))
    signs = draw(st.lists(gates(num_qubits, _Z_KINDS), max_size=4))
    mirrored = moves[::-1]
    variant = draw(st.sampled_from(["cancel", "odd", "changed", "sign_only", "split", "mixed"]))
    if variant == "odd":
        run = moves + signs + [draw(gates(num_qubits, _X_KINDS))] + mirrored
    elif variant == "changed":
        where = draw(st.integers(0, len(mirrored) - 1))
        changed = draw(gates(num_qubits, _X_KINDS))
        assume(changed != mirrored[where])
        mirrored[where] = changed
        run = moves + signs + mirrored
    elif variant == "sign_only":
        run = draw(st.lists(gates(num_qubits, _Z_KINDS), min_size=1, max_size=5))
    elif variant == "split":
        run = moves + signs + mirrored
        where = draw(st.integers(1, len(run) - 1))
        run.insert(where, draw(gates(num_qubits, _MIXING_KINDS)))
    elif variant == "mixed":
        run = draw(st.lists(gates(num_qubits, _X_KINDS | _Z_KINDS), min_size=1, max_size=9))
    else:
        run = moves + signs + mirrored
    return Circuit(num_qubits, (*draw(mixing), *run, *draw(mixing)))


@settings(max_examples=800, deadline=None)
@given(sandwich_circuits(), st.integers(0, 2**32 - 1))
def test_signed_permutation_runs_match_mask_kernel_exactly(circuit, seed):
    amps = _random_amplitudes(circuit.num_qubits, seed)
    out = apply_circuit(Statevector(circuit.num_qubits, amps), circuit)
    assert np.array_equal(out.amplitudes, _reference_circuit(amps, circuit))


@pytest.fixture
def runs(monkeypatch):
    """A fresh, empty run cache for the test."""
    cache = simcore._SignedPermutations()
    monkeypatch.setattr(simcore, "_RUNS", cache)
    return cache


def _counts(cache):
    return len(cache), cache.hits, cache.misses, cache.nbytes


def _apply_twice_exactly(circuit, seed):
    amps = _random_amplitudes(circuit.num_qubits, seed)
    for _ in range(2):
        out = apply_circuit(Statevector(circuit.num_qubits, amps), circuit)
        assert np.array_equal(out.amplitudes, _reference_circuit(amps, circuit))


def test_a_cancelling_run_is_applied_as_one_cached_negation(runs):
    moves = [cnot(0, 1), Gate("X", 2, ((0, 0), (1, 1)))]
    run = moves + [Gate("Z", 1, ((2, 1),))] + moves[::-1]
    circuit = Circuit(3, (Gate("H", 0), *run, Gate("H", 2)))
    _apply_twice_exactly(circuit, 5)
    assert (len(runs), runs.hits, runs.misses) == (1, 1, 1)
    source, negated = runs.lookup(3, "xxzxx", run)
    assert source is None  # the run moves no amplitude
    assert negated.dtype == np.intp and 0 < len(negated) < 1 << 3


def test_a_run_that_moves_amplitudes_is_one_cached_gather(runs):
    # CNOT(0->1), CNOT(1->0) sends |01> to |10> to |11> to |01>: a 3-cycle,
    # so a gather through the inverse permutation would differ
    run = [cnot(0, 1), cnot(1, 0), Gate("Z", 0, ((2, 0),)), Gate("X", 2)]
    circuit = Circuit(3, (Gate("H", 0), Gate("RY", 1, (), 0.3), *run, Gate("H", 2)))
    _apply_twice_exactly(circuit, 7)
    assert (len(runs), runs.hits, runs.misses) == (1, 1, 1)
    source, negated = runs.lookup(3, "xxzx", run)
    assert sorted(source) == list(range(8))
    assert not np.array_equal(source[source], np.arange(8))
    assert len(negated) and not source.flags.writeable and not negated.flags.writeable


def test_a_run_of_sign_gates_alone_goes_gate_by_gate(runs):
    signs = (Gate("Z", 0), Gate("Z", 1, ((2, 0),)), Gate("Z", 2))
    circuit = Circuit(3, (Gate("H", 0), *signs, Gate("H", 2)))
    _apply_twice_exactly(circuit, 6)
    assert _counts(runs) == (0, 0, 0, 0)


@pytest.mark.parametrize("run", [
    (Gate("X", 0), Gate("X", 2), Gate("Z", 1)),  # uncontrolled: a target load
    (cnot(0, 1), cnot(1, 2)),  # two gates
], ids=["uncontrolled", "two-gates"])
def test_short_or_uncontrolled_runs_go_gate_by_gate(runs, run):
    circuit = Circuit(3, (Gate("H", 0), Gate("H", 1), *run, Gate("H", 2)))
    _apply_twice_exactly(circuit, 8)
    assert _counts(runs) == (0, 0, 0, 0)


def _distinct_runs(count, seed):
    """Circuits on 6 qubits, each with its own run of three CNOTs and a Z.

    One run's entry holds a 512-byte gather and its negated indices.
    """
    rng = np.random.default_rng(seed)
    circuits = []
    for _ in range(count):
        picks = [rng.permutation(6)[:2] for _ in range(4)]
        run = [cnot(int(c), int(t)) for c, t in picks[:3]] + [Gate("Z", int(picks[3][0]))]
        circuits.append(Circuit(6, (Gate("H", 0), Gate("H", 3), *run)))
    return circuits


def _held_bytes(cache):
    return sum(sum(a.nbytes for a in entry if a is not None) for entry in cache._entries.values())


def test_run_cache_stays_under_its_byte_ceiling(runs, monkeypatch):
    monkeypatch.setattr(runs, "MAX_BYTES", 1500)
    circuits = _distinct_runs(12, 3)
    for circuit in circuits + circuits[:4]:
        _apply_twice_exactly(circuit, 9)
        assert 0 < runs.nbytes == _held_bytes(runs) <= runs.MAX_BYTES
    assert len(runs) <= 2 and runs.misses > 12


def test_run_cache_stays_consistent_across_threads(runs, monkeypatch):
    # more threads than cores, switching often, on a cache that evicts:
    # a lost update would leave nbytes off the entries' own total
    monkeypatch.setattr(runs, "MAX_BYTES", 4000)
    circuits = _distinct_runs(16, 4)
    amps = _random_amplitudes(6, 10)
    expected = [_reference_circuit(amps, circuit) for circuit in circuits]

    def work(offset):
        for i in range(3 * len(circuits)):
            k = (offset + i) % len(circuits)
            out = apply_circuit(Statevector(6, amps), circuits[k])
            assert np.array_equal(out.amplitudes, expected[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, offset) for offset in range(8)]
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert 0 < runs.nbytes == _held_bytes(runs) <= runs.MAX_BYTES
    assert runs.hits + runs.misses == 8 * 3 * len(circuits)


def test_qsa_over_every_target_adds_no_cache_entry_per_target(runs):
    # entries of weight >= 4: the zero target is the farthest from every
    # entry, so a blind search for it probes every distance another target
    # does, and it alone runs the diffusion's X-wrapped flip
    entries = [format(v, "06b") for v in range(64) if v.bit_count() >= 4]
    db = Database(6, tuple(entries))
    loader = exact_loader(db)
    config = QsaConfig(shots=256, rng_seed=11, blind=True)
    assert run_qsa(loader, db, TargetSequence("000000"), config).distance == 4
    single = len(runs)
    for t in range(64):
        run_qsa(loader, db, TargetSequence(format(t, "06b")), config)
    assert 0 < len(runs) == single


def test_qsa_with_an_empty_loader_adds_no_cache_entry_per_target(runs):
    # the single all-zero entry loads with no gate, so the probe circuit
    # opens with the target load's X gates right before the controlled run
    # of the entangler and popcount; run_circuit starts from the basis
    # state those X gates write, which keeps them out of that run and the
    # cache free of one entry per target
    db = Database(4, ("0000",))
    loader = exact_loader(db)
    assert loader.gates == ()
    for t in range(16):
        run_qsa(loader, db, TargetSequence(format(t, "04b")), QsaConfig(shots=64, rng_seed=t))
    assert len(runs) == 1


def _search_case(db, target, loader, case_id):
    layout = RegisterLayout(db.n)
    prep = initialisation_unitary(strip_diagonal_tail(loader), target, layout)
    delta = min(bin(int(e, 2) ^ int(target.bits, 2)).count("1") for e in db.entries)
    return pytest.param(search_circuit(prep, phase_oracle(layout, delta), 2), id=case_id)


# GA seeds whose short runs leave loaders with CNOTs: alone, in pairs, and
# in runs of three or more, inside the loader and at its end
_SHORT_GA_SEEDS = {3: 20, 4: 27, 5: 28, 6: 21}


def _search_cases():
    cases = []
    for n in range(3, 7):
        db = random_database(n, "floor", [16, n])
        target = random_target(n, [16, n, 1])
        cases.append(_search_case(db, target, exact_loader(db), f"n={n}-exact"))
        cases.append(_search_case(
            db, target, calibrated_loader(db, 0.7, 16), f"n={n}-calibrated-0.7"
        ))
        seed = _SHORT_GA_SEEDS[n]
        ga = GaConfig(population_size=8, max_generations=3, rng_seed=seed)
        loader = calibrated_loader(db, 0.7, seed, ga)
        assert any(gate.kind == "X" for gate in loader.gates)
        cases.append(_search_case(db, target, loader, f"n={n}-short-ga"))
    db = random_database(3, "floor", [16, 0])
    # an all-zero target wraps the diffusion's sign flip in X gates
    cases.append(_search_case(db, TargetSequence("000"), exact_loader(db), "n=3-zero-target"))
    # a loader that starts and ends with CNOTs: the diffusion's undo and redo
    # of it then mirror those CNOTs around the sign flips
    loader = Circuit(3, (cnot(1, 0),) + exact_loader(db).gates + (cnot(0, 2),))
    cases.append(_search_case(db, random_target(3, [16, 0, 1]), loader, "n=3-cnot-ends"))
    db = random_database(4, "floor", [16, 4, 2])
    loader = calibrated_loader(db, 0.6, 16)
    cases.append(_search_case(db, random_target(4, [16, 4, 3]), loader, "n=4-calibrated-0.6"))
    # run_circuit starts from the basis state that a circuit's leading
    # uncontrolled X gates write, and applies the rest
    leading = {
        "x-twice": (x(1), x(2), x(1), Gate("H", 0), Gate("RY", 1, ((2, 1),), 0.4)),
        "x-run-then-cnot": (x(0), x(3), cnot(0, 2), Gate("H", 1), cnot(1, 3)),
        "all-x": (x(0), x(2), x(0), x(1)),
        "empty": (),
    }
    for case_id, gate_list in leading.items():
        cases.append(pytest.param(Circuit(4, gate_list), id=case_id))
    return cases


@pytest.mark.parametrize("circuit", _search_cases())
def test_search_circuit_matches_mask_kernel_exactly(circuit):
    zero = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    zero[0] = 1.0
    assert np.array_equal(run_circuit(circuit).amplitudes, _reference_circuit(zero, circuit))
