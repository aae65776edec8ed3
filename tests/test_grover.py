"""Oracle and diffusion reflections, layer planning, closed-form agreement."""
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from qsalign.experiments import calibrated_loader, random_database, random_target
from qsalign.grover import (
    diffusion,
    grover_layer,
    make_plan,
    marked_probability,
    phase_oracle,
    search_circuit,
    success_probability,
)
from qsalign.registers import (
    Database,
    RegisterLayout,
    TargetSequence,
    exact_loader,
    hamming,
    initialisation_unitary,
)
from qsalign.simcore import (
    Circuit,
    Statevector,
    apply_circuit,
    basis_state,
    cnot,
    concat,
    invert,
    mcx,
    mcz,
    ry,
    rz,
    run_circuit,
    x,
)


def _reference_phase_oracle(layout, delta):
    # reference: one MCZ on the lowest 1-bit of delta, or on the lowest
    # distance qubit X-conjugated when delta is zero
    dist = list(layout.distance)
    bits = [(delta >> i) & 1 for i in range(layout.k)]
    if any(bits):
        t = bits.index(1)
        controls = [(dist[i], bits[i]) for i in range(layout.k) if i != t]
        return Circuit(layout.total, (mcz(controls, dist[t]),))
    controls = [(dist[i], 0) for i in range(1, layout.k)]
    return Circuit(layout.total, (x(dist[0]), mcz(controls, dist[0]), x(dist[0])))


def _reference_zero_reflection(num_qubits):
    # reference: an MCZ wrapped in X gates on every qubit, 2q + 1 gates
    wrap = tuple(x(q) for q in range(num_qubits))
    core = mcz([(q, 1) for q in range(1, num_qubits)], 0)
    return Circuit(num_qubits, wrap + (core,) + wrap)


def _reference_layer(prep, layout, delta):
    reflection = _reference_zero_reflection(prep.num_qubits)
    return concat(_reference_phase_oracle(layout, delta), invert(prep), reflection, prep)


def test_phase_oracle_delta_range():
    layout = RegisterLayout(3)
    phase_oracle(layout, 0)
    phase_oracle(layout, 3)
    with pytest.raises(ValueError):
        phase_oracle(layout, -1)
    with pytest.raises(ValueError):
        phase_oracle(layout, 4)


def test_phase_oracle_flips_only_matching_distance():
    layout = RegisterLayout(3)
    for delta in range(4):
        circuit = phase_oracle(layout, delta)
        for idx in (0, 1, 5, 64, 85, 170, 255):
            state = apply_circuit(basis_state(layout.total, idx), circuit)
            sign = -1.0 if idx >> (2 * layout.n) == delta else 1.0
            assert np.isclose(state.amplitudes[idx], sign), (delta, idx)


def test_phase_oracle_matches_reference_construction():
    for n in range(1, 9):
        layout = RegisterLayout(n)
        for delta in range(n + 1):
            assert phase_oracle(layout, delta) == _reference_phase_oracle(layout, delta), (n, delta)


def test_zero_reflection_signs():
    # the diffusion of an empty preparation is the reflection about |0...0>
    for q in range(1, 11):
        circuit = diffusion(Circuit(q, ()))
        assert len(circuit.gates) == 3, q
        for idx in range(1 << q):
            state = apply_circuit(basis_state(q, idx), circuit)
            expected = np.zeros(1 << q, dtype=complex)
            expected[idx] = -1.0 if idx == 0 else 1.0
            assert np.array_equal(state.amplitudes, expected), (q, idx)


@pytest.mark.parametrize("calibrated", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
# no shrink phase: shrinking a failing 15-qubit example takes minutes
@settings(max_examples=3, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(instance_seed=st.integers(0, 2**32 - 1), requested=st.floats(0.0, 1.0, exclude_min=True))
def test_search_states_bit_identical_to_reference_reflections(
    n, calibrated, instance_seed, requested
):
    # X swaps halves exactly and MCZ negates exactly, so the 3-gate
    # reflection must give the very same amplitudes as the X-wrapped one
    db = random_database(n, "floor", [instance_seed, 0])
    target = random_target(n, [instance_seed, 1])
    if calibrated:
        loader = calibrated_loader(db, requested, instance_seed)
    else:
        loader = exact_loader(db)
    layout = RegisterLayout(n)
    prep = initialisation_unitary(loader, target, layout)
    for delta in range(n + 1):
        oracle = phase_oracle(layout, delta)
        reference_layer = _reference_layer(prep, layout, delta)
        # applying the reference pass one layer a step runs its gates in
        # the order run_circuit would
        expected = run_circuit(prep)
        for p in range(4):
            if p:
                expected = apply_circuit(expected, reference_layer)
            got = run_circuit(search_circuit(prep, oracle, p))
            assert np.array_equal(got.amplitudes, expected.amplitudes), (delta, p)


def test_diffusion_reflects_about_prepared_state():
    db = Database(3, ("101", "010", "000"))
    layout = RegisterLayout(3)
    prep = initialisation_unitary(exact_loader(db), TargetSequence("110"), layout)
    psi = run_circuit(prep).amplitudes
    reflected = apply_circuit(Statevector(layout.total, psi), diffusion(prep))
    # the prepared state itself is a -1 eigenvector of the reflection
    assert np.allclose(reflected.amplitudes, -psi, atol=1e-10)
    # anything orthogonal to it keeps its sign
    rng = np.random.default_rng(2)
    v = rng.normal(size=psi.size) + 1j * rng.normal(size=psi.size)
    v -= np.vdot(psi, v) * psi
    v /= np.linalg.norm(v)
    out = apply_circuit(Statevector(layout.total, v), diffusion(prep))
    assert np.allclose(out.amplitudes, v, atol=1e-10)


@st.composite
def _preparations(draw):
    """A leading run of uncontrolled X gates, repeats allowed, then a mixing body."""
    q = draw(st.integers(2, 7))
    qubits = st.integers(0, q - 1)
    lead = draw(st.lists(qubits, max_size=2 * q))
    body = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["RY", "RZ", "CNOT", "MCX"]))
        order = draw(st.permutations(range(q)))
        angle = draw(st.floats(-math.pi, math.pi))
        if kind == "CNOT":
            body.append(cnot(order[1], order[0]))
            continue
        controls = [(c, draw(st.integers(0, 1))) for c in order[1 : draw(st.integers(1, q))]]
        if kind == "MCX":
            body.append(mcx(controls, order[0]))
        else:
            body.append((ry if kind == "RY" else rz)(order[0], angle, controls))
    return Circuit(q, tuple(x(t) for t in lead) + tuple(body))


@settings(max_examples=60, deadline=None)
@given(prep=_preparations(), seed=st.integers(0, 2**32 - 1))
@example(prep=Circuit(3, (x(1), x(1), ry(0, 0.4), cnot(0, 2))), seed=0)  # parity 0 on qubit 1
@example(prep=Circuit(3, (x(2), x(0), x(2), ry(1, 0.4))), seed=1)  # bits 1, 0, 0
@example(prep=Circuit(3, (ry(1, 0.4), x(0))), seed=2)  # no leading run
def test_folded_diffusion_equals_the_unfolded_reflection(prep, seed):
    # the leading X run X folds into the sign flip: X S X is the reflection
    # about X|0...0>, whose bit on each qubit is the parity of its X gates
    unfolded = concat(invert(prep), _reference_zero_reflection(prep.num_qubits), prep)
    folded = diffusion(prep)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << prep.num_qubits) + 1j * rng.normal(size=1 << prep.num_qubits)
    state = Statevector(prep.num_qubits, amps / np.linalg.norm(amps))
    got = apply_circuit(state, folded).amplitudes
    expected = apply_circuit(state, unfolded).amplitudes
    assert np.max(np.abs(got - expected)) <= 1e-15
    # the sign flip is one MCZ, X-wrapped only when every parity is 0
    lead = next((i for i, g in enumerate(prep.gates) if g.kind != "X" or g.controls), len(prep))
    flipped = {q for q in range(prep.num_qubits)
               if sum(g.targets[0] == q for g in prep.gates[:lead]) % 2}
    assert len(folded) == 2 * (len(prep) - lead) + (1 if flipped else 3)


def test_diffusion_reflects_about_the_loaded_target_with_one_mcz():
    # the target load leads the preparation, so the sign flip is one MCZ on
    # |0, t, 0> and no X gate of the target load survives in the layer
    layout = RegisterLayout(3)
    db = Database(3, ("101", "010", "000"))
    prep = initialisation_unitary(exact_loader(db), TargetSequence("110"), layout)
    layer = grover_layer(prep, phase_oracle(layout, 1))
    (flip,) = [g for g in layer.gates if g.kind == "MCZ" and len(g.controls) == layout.total - 1]
    pattern = sorted(flip.controls + ((flip.targets[0], 1),))
    assert pattern == [(q, (layout.pack_index(0, 0b110, 0) >> q) & 1) for q in range(layout.total)]
    assert not [g for g in layer.gates if g.kind == "X"]


def test_layer_gate_counts_pinned():
    # seed-0 instances at delta = 1, the README's per-layer gate table
    counts = []
    for n in range(3, 9):
        layout = RegisterLayout(n)
        prep = initialisation_unitary(
            exact_loader(random_database(n, "floor", 0)), random_target(n, 0), layout
        )
        counts.append(len(grover_layer(prep, phase_oracle(layout, 1))))
    assert counts == [26, 38, 52, 86, 132, 184]


def test_grover_layer_width_check():
    layout = RegisterLayout(3)
    with pytest.raises(ValueError):
        grover_layer(Circuit(4, ()), phase_oracle(layout, 0))


def test_search_circuit_zero_layers_is_preparation():
    db = Database(3, ("101", "010"))
    layout = RegisterLayout(3)
    prep = initialisation_unitary(exact_loader(db), TargetSequence("111"), layout)
    circuit = search_circuit(prep, phase_oracle(layout, 1), 0)
    assert np.allclose(run_circuit(circuit).amplitudes, run_circuit(prep).amplitudes)


def test_search_circuit_matches_layer_by_layer_concatenation():
    db = Database(3, ("101", "010", "000"))
    layout = RegisterLayout(3)
    prep = initialisation_unitary(exact_loader(db), TargetSequence("110"), layout)
    oracle = phase_oracle(layout, 2)
    layer = grover_layer(prep, oracle)
    expected = prep
    for p in range(4):
        assert search_circuit(prep, oracle, p) == expected
        expected = concat(expected, layer)


def test_success_probability_known_values():
    # theta = pi/6 for c/N = 1/4, so one layer reaches certainty
    assert np.isclose(success_probability(1, 4, 1), 1.0)
    # zero layers is the bare chance c/N
    assert np.isclose(success_probability(0, 10, 3), 0.3)
    # c = N stays at certainty regardless of layers
    for p in range(4):
        assert np.isclose(success_probability(p, 5, 5), 1.0)
    # the balanced ratio is stationary at one half
    for p in range(6):
        assert np.isclose(success_probability(p, 4, 2), 0.5)
    with pytest.raises(ValueError):
        success_probability(1, 4, 0)
    with pytest.raises(ValueError):
        success_probability(1, 4, 5)
    with pytest.raises(ValueError):
        success_probability(-1, 4, 1)


def test_paper_ceil_frozen_cases():
    cases = {
        (2, 1): 2,
        (4, 1): 2,
        (7, 1): 3,
        (64, 1): 7,
        (5, 5): 0,   # the oracle marks every entry: nothing to amplify
    }
    for (size, matches), expected in cases.items():
        assert make_plan(size, matches, "paper_ceil").layers == expected, (size, matches)


def test_best_integer_frozen_cases():
    cases = {
        (7, 1): 2,
        (4, 1): 1,
        (6, 1): 1,
        (10, 1): 2,
        (16, 1): 3,
        (3, 2): 2,
        (2, 1): 0,   # balanced ratio: every layer count gives 1/2
        (4, 2): 0,
        (6, 3): 0,
        (5, 5): 0,   # already certain
        (4, 3): 0,   # odd layer counts hit exactly zero
    }
    for (size, matches), expected in cases.items():
        assert make_plan(size, matches, "best_integer").layers == expected, (size, matches)


def test_best_integer_quality_bounds():
    # the chosen count never loses to zero or one layer, and for sparse
    # matches it reaches the standard first-peak guarantee 1 - c/N
    for size in range(2, 21):
        for matches in range(1, size + 1):
            layers = make_plan(size, matches, "best_integer").layers
            top = success_probability(layers, size, matches)
            assert top + 1e-9 >= success_probability(0, size, matches)
            assert top + 1e-9 >= success_probability(1, size, matches)
            assert top + 1e-9 >= 1 - matches / size


def test_plans_start_from_zero_layers():
    # every 1 <= c <= N <= 64: 2080 pairs, cheap enough to check them all
    for size in range(1, 65):
        for matches in range(1, size + 1):
            paper = make_plan(size, matches, "paper_ceil").layers
            best = make_plan(size, matches, "best_integer").layers
            assert paper >= 0 and best >= 0
            if matches == size:
                assert paper == best == 0
            # later cycles of sin^2((2p+1) theta) creep ever closer to 1, so
            # the policy looks no further than its first oscillation when
            # c/N <= 1/2, and a few cycles for coarser ratios; within that
            # it is the smallest brute-force argmax, zero layers included
            theta = math.asin(math.sqrt(matches / size))
            if 2 * matches <= size:
                horizon = math.ceil(math.pi / (4 * theta)) + 1
            else:
                horizon = math.ceil(math.pi / (2 * theta)) + 8
            scores = [
                round(success_probability(p, size, matches), 12) for p in range(horizon + 1)
            ]
            assert best == scores.index(max(scores)), (size, matches)
            top = success_probability(best, size, matches)
            assert top + 1e-12 >= success_probability(0, size, matches)
            assert top + 1e-12 >= success_probability(paper, size, matches)


def test_make_plan_policies():
    assert make_plan(7, 1, "paper_ceil").layers == 3
    # at the alternating ratio c/N = 3/4 every odd layer count succeeds with
    # probability exactly 0, so the best plan keeps the initial overlap
    plan = make_plan(4, 3, "best_integer")
    assert plan.layers == 0
    assert np.isclose(success_probability(plan.layers, 4, 3), 0.75)
    with pytest.raises(ValueError):
        make_plan(4, 1, "greedy")
    with pytest.raises(ValueError):
        make_plan(4, 4, "greedy")
    with pytest.raises(ValueError):
        make_plan(4, 0, "paper_ceil")


def test_marked_probability_hand_state():
    layout = RegisterLayout(3)
    amps = np.zeros(1 << layout.total, dtype=complex)
    amps[layout.pack_index(0b101, 0b010, 1)] = math.sqrt(0.25)
    amps[layout.pack_index(0b010, 0b101, 2)] = math.sqrt(0.75)
    state = Statevector(layout.total, amps)
    assert np.isclose(marked_probability(state, layout, 1), 0.25)
    assert np.isclose(marked_probability(state, layout, 2), 0.75)
    assert np.isclose(marked_probability(state, layout, 0), 0.0)
    # the distance register is a row index, which a negative delta would
    # count from the end
    for delta in (-1, 4):
        with pytest.raises(ValueError):
            marked_probability(state, layout, delta)


def test_layers_track_closed_form():
    # simulated marked probability equals sin^2((2p+1) asin(sqrt(c/N)))
    rng = np.random.default_rng(23)
    layout = RegisterLayout(3)
    for _ in range(5):
        values = rng.choice(8, size=3, replace=False)
        db = Database(3, tuple(format(int(v), "03b") for v in values))
        target = format(int(rng.integers(8)), "03b")
        counts = [
            sum(1 for e in db.entries if hamming(e, target) == d) for d in range(4)
        ]
        delta = next(d for d in range(4) if counts[d])
        prep = initialisation_unitary(exact_loader(db), TargetSequence(target), layout)
        state = run_circuit(prep)
        layer = grover_layer(prep, phase_oracle(layout, delta))
        for p in range(6):
            predicted = success_probability(p, 3, counts[delta])
            assert np.isclose(marked_probability(state, layout, delta), predicted, atol=1e-9)
            state = apply_circuit(state, layer)


def test_seven_entry_periodicity():
    # one match in seven entries: layer counts 1 and 2 are near-optimal,
    # 3 and 4 sink, and the pattern repeats with period four
    probs = [success_probability(p, 7, 1) for p in range(9)]
    assert probs[1] > 0.8 and probs[2] > 0.8
    assert probs[3] < 0.25 and probs[4] < 0.25
    for p in range(1, 5):
        assert abs(probs[p] - probs[p + 4]) < 0.06
