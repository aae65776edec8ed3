"""Iterative search driver: acceptance rule, accuracy score, result records."""
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import qsalign.qsa as qsa
from qsalign import gasp, simcore
from qsalign.experiments import calibrated_loader, perturb_state, random_database, random_target
from qsalign.gasp import GaConfig, Genome, genome_circuit
from qsalign.grover import (
    grover_layer,
    make_plan,
    phase_oracle,
    search_circuit,
    success_probability,
)
from qsalign.qsa import (
    QsaConfig,
    QsaResult,
    accuracy,
    classical_min_hamming,
    count_matches,
    ideal_distribution,
    result_record,
    run_qsa,
    strip_diagonal_tail,
)
from qsalign.registers import (
    Database,
    RegisterLayout,
    TargetSequence,
    database_state,
    exact_loader,
    hamming,
    initialisation_unitary,
    target_loader,
)
from qsalign.simcore import (
    Circuit,
    apply_circuit,
    basis_state,
    concat,
    ry,
    run_circuit,
    rz,
    sample_counts,
    z,
)


def test_config_validation():
    QsaConfig(rng_seed=0)
    with pytest.raises(ValueError):
        QsaConfig(shots=0, rng_seed=0)
    with pytest.raises(ValueError):
        QsaConfig(repeats=0, rng_seed=0)
    with pytest.raises(ValueError):
        QsaConfig(layer_policy="always_three", rng_seed=0)


def test_config_refuses_a_negative_seed():
    # SeedSequence takes no negative entropy, and None would draw fresh entropy
    with pytest.raises(TypeError):
        QsaConfig(rng_seed=None)
    QsaConfig(rng_seed=0)
    with pytest.raises(ValueError, match="rng_seed"):
        QsaConfig(rng_seed=-1)


def test_classical_min_hamming():
    db = Database(3, ("000", "011", "111"))
    d_min, entries = classical_min_hamming(db, TargetSequence("110"))
    assert d_min == 1
    assert entries == {"111"}
    d_min, entries = classical_min_hamming(db, TargetSequence("011"))
    assert d_min == 0
    assert entries == {"011"}


def test_count_matches():
    db = Database(3, ("000", "011", "111"))
    target = TargetSequence("110")
    assert [count_matches(db, target, d) for d in range(4)] == [0, 1, 2, 0]
    with pytest.raises(ValueError):
        count_matches(db, target, 4)
    with pytest.raises(ValueError):
        count_matches(db, target, -1)


def test_accuracy_frozen_example():
    # uniform counts against a one-hot ideal in dimension 4: cosine of
    # (1/2,1/2,1/2,1/2) with (1,0,0,0) is exactly 1/2
    ideal = {0: 1.0}
    counts = {0: 25, 1: 25, 2: 25, 3: 25}
    assert np.isclose(accuracy(counts, ideal), 0.5)


def test_accuracy_perfect_and_scale_invariant():
    ideal = {0: 0.5, 1: 0.25, 2: 0.25}
    counts = {0: 2000, 1: 1000, 2: 1000}
    assert np.isclose(accuracy(counts, ideal), 1.0)
    scaled = {k: v * 7 for k, v in counts.items()}
    assert np.isclose(accuracy(scaled, ideal), accuracy(counts, ideal))


def test_accuracy_validation():
    ideal = {0: 1.0}
    with pytest.raises(ValueError, match="empty"):
        accuracy({}, ideal)
    with pytest.raises(ValueError, match="zero"):
        accuracy({0: 0}, ideal)


def _distances(db, target):
    return {e: hamming(e, target.bits) for e in db.entries}


def _assert_ideal_matches_gate_level(db, target):
    # every delta, attempted or not, and p = 0..4 against the full search
    # circuit on an exact loader
    layout = RegisterLayout(db.n)
    prep = initialisation_unitary(exact_loader(db), target, layout)
    for delta in range(db.n + 1):
        for p in range(5):
            probs = run_circuit(search_circuit(prep, phase_oracle(layout, delta), p)).probabilities()
            ideal = ideal_distribution(_distances(db, target), target, delta, p)
            assert len(ideal) == db.size
            support = np.zeros(probs.size, dtype=bool)
            for outcome, prob in ideal.items():
                support[outcome] = True
                assert abs(probs[outcome] - prob) <= 1e-12, (delta, p, outcome)
            assert probs[~support].sum() <= 1e-12, (delta, p)


# no shrink phase: shrinking a failing 15-qubit example takes minutes
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(max_examples=5, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(instance_seed=st.integers(0, 2**32 - 1))
def test_ideal_distribution_matches_gate_level_search(n, instance_seed):
    db = random_database(n, "floor", [instance_seed, 0])
    target = random_target(n, [instance_seed, 1])
    _assert_ideal_matches_gate_level(db, target)


def test_ideal_distribution_with_no_and_all_branches_marked():
    # every entry sits at distance 2: delta = 2 marks all three branches,
    # and any other delta marks none, so every branch keeps 1/3
    db = Database(3, ("011", "101", "110"))
    target = TargetSequence("000")
    _assert_ideal_matches_gate_level(db, target)
    distance = _distances(db, target)
    assert set(ideal_distribution(distance, target, 1, 3).values()) == {1 / 3}
    assert sum(ideal_distribution(distance, target, 2, 3).values()) == pytest.approx(1.0, abs=1e-15)


def test_run_qsa_accuracy_matches_dense_gate_level_reference():
    # the score the driver reports equals the cosine against the dense
    # statevector of the same search on an exact loader
    rng = np.random.default_rng(31)
    for n in (3, 4, 5):
        for trial in range(6):
            db = random_database(n, "floor", rng)
            target = random_target(n, rng)
            requested = (1.0, 0.9, 0.6, 0.3)[trial % 4]
            loader = calibrated_loader(db, requested, int(rng.integers(2**31)))
            config = QsaConfig(rng_seed=int(rng.integers(2**31)), blind=trial >= 3)
            result = run_qsa(loader, db, target, config)
            layout = RegisterLayout(n)
            prep = initialisation_unitary(exact_loader(db), target, layout)
            oracle = phase_oracle(layout, result.delta_trace[-1])
            v = run_circuit(search_circuit(prep, oracle, result.layers_used)).probabilities()
            u = np.zeros_like(v)
            for outcome, count in result.counts.items():
                u[outcome] = count
            expected = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            assert abs(result.accuracy - expected) <= 1e-12, (n, trial)


def test_tied_counts_go_to_the_lowest_basis_index(monkeypatch):
    # 100 and 001 both sit at d_min = 1 with equal counts; 001 has the lower
    # index though 100 comes first in the database, and the non-entry 000
    # outnumbers both
    db = Database(3, ("100", "001", "111"))
    target = TargetSequence("000")
    layout = RegisterLayout(3)
    fake = {
        layout.pack_index(0b000, 0b000, 0): 50,
        layout.pack_index(0b001, 0b001, 1): 20,
        layout.pack_index(0b100, 0b100, 1): 20,
        layout.pack_index(0b111, 0b111, 3): 30,
    }
    assert list(fake) == sorted(fake)
    monkeypatch.setattr(qsa, "sample_counts", lambda state, shots, seed: fake)
    result = run_qsa(exact_loader(db), db, target, QsaConfig(rng_seed=0))
    assert (result.match, result.distance, result.degraded) == ("001", 1, False)
    assert result.counts is fake


def test_run_qsa_exact_match():
    db = Database(3, ("101", "010"))
    target = TargetSequence("101")
    result = run_qsa(exact_loader(db), db, target, QsaConfig(rng_seed=0))
    assert result.match == "101"
    assert result.distance == 0
    assert not result.degraded
    assert result.delta_trace[0] == 0
    assert 0.0 <= result.accuracy <= 1.0


def test_run_qsa_best_alignment():
    db = Database(3, ("000", "011"))
    target = TargetSequence("111")
    result = run_qsa(exact_loader(db), db, target, QsaConfig(rng_seed=0))
    assert result.match == "011"
    assert result.distance == 1


def test_delta_trace_monotone_and_skips_empty():
    db = Database(3, ("000", "011"))
    target = TargetSequence("111")
    result = run_qsa(exact_loader(db), db, target, QsaConfig(rng_seed=1, repeats=2))
    assert list(result.delta_trace) == sorted(result.delta_trace)
    # distance 0 has no classical matches, so the first probe is 1
    assert result.delta_trace[0] == 1


def test_blind_mode_probes_everything():
    db = Database(3, ("000", "011"))
    target = TargetSequence("111")
    config = QsaConfig(rng_seed=3, blind=True, layer_policy="best_integer")
    result = run_qsa(exact_loader(db), db, target, config)
    # blind runs fix one layer and never consult classical match counts
    assert result.layers_used == 1
    assert result.delta_trace[0] == 0
    assert result.distance >= 1


def test_run_qsa_deterministic():
    db = Database(4, ("0011", "1100", "0110", "1111"))
    target = TargetSequence("0011")
    config = QsaConfig(rng_seed=42, layer_policy="best_integer")
    a = run_qsa(exact_loader(db), db, target, config)
    b = run_qsa(exact_loader(db), db, target, config)
    assert a == b
    # one match in four entries amplifies to certainty at one layer,
    # so any seed lands on the same entry
    c = run_qsa(exact_loader(db), db, target, QsaConfig(rng_seed=43, layer_policy="best_integer"))
    assert c.match == a.match == "0011"


def test_distance_never_beats_classical_minimum():
    # whatever the sampling noise does, the reported entry is a real database
    # entry, so its distance cannot go below the classical minimum
    rng = np.random.default_rng(9)
    for _ in range(10):
        values = rng.choice(16, size=4, replace=False)
        db = Database(4, tuple(format(int(v), "04b") for v in values))
        target = TargetSequence(format(int(rng.integers(16)), "04b"))
        d_min, _ = classical_min_hamming(db, target)
        config = QsaConfig(rng_seed=int(rng.integers(2**31)), layer_policy="best_integer")
        result = run_qsa(exact_loader(db), db, target, config)
        assert result.match in db.entries
        assert hamming(result.match, target.bits) == result.distance
        assert result.distance >= d_min


@pytest.mark.parametrize("blind", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=8, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), requested=st.floats(0.0, 1.0, exclude_min=True))
def test_match_is_an_entry_at_its_distance(n, blind, instance_seed, requested):
    # a noisy loader puts weight on non-entries, and blind mode probes
    # distances below the minimum, so the top outcome must be checked
    db = random_database(n, "floor", [instance_seed, 0])
    target = random_target(n, [instance_seed, 1])
    d_min, _ = classical_min_hamming(db, target)
    loader = calibrated_loader(db, requested, instance_seed)
    result = run_qsa(loader, db, target, QsaConfig(rng_seed=instance_seed, blind=blind))
    assert result.match in db.entries
    assert result.distance == hamming(result.match, target.bits)
    assert result.distance >= d_min


def test_paper_policy_returns_the_minimum_unless_its_probe_cannot_succeed():
    # every sampled entry at the probed distance counts, not only the top
    # outcome, so an exact loader finds d_min whenever its probe has any
    # chance; the one exemption is c/N = 3/4, where the paper's single
    # layer gives exactly zero, and the farther answer must be flagged
    exempt = 0
    for n, instances in ((3, 40), (4, 40), (5, 40), (6, 15)):
        for seed in range(instances):
            db = random_database(n, "floor", [seed, n, 0])
            target = random_target(n, [seed, n, 1])
            d_min, nearest = classical_min_hamming(db, target)
            plan = make_plan(db.size, len(nearest), "paper_ceil")
            result = run_qsa(exact_loader(db), db, target, QsaConfig(rng_seed=seed))
            if success_probability(plan.layers, db.size, len(nearest)) < 1e-12:
                exempt += 1
                assert result.distance > d_min and result.degraded, (n, seed)
                continue
            assert (result.distance, result.degraded) == (d_min, False), (n, seed)
    assert exempt < 10


def test_probe_marking_every_entry_runs_no_layer():
    # both entries sit at d_min, so the oracle marks the whole database; on
    # a loader at fidelity 0.8 the marked weight is below 1 and one layer
    # overshoots it, while the bare preparation already scores well
    db = random_database(3, "floor", [12, 0])
    target = random_target(3, [12, 1])
    d_min, nearest = classical_min_hamming(db, target)
    assert len(nearest) == db.size
    loader = calibrated_loader(db, 0.8, 12)
    layout = RegisterLayout(3)
    prep = initialisation_unitary(loader, target, layout)
    one_layer = run_circuit(search_circuit(prep, phase_oracle(layout, d_min), 1))
    ideal = ideal_distribution(_distances(db, target), target, d_min, 1)
    one_layer_accuracy = accuracy(sample_counts(one_layer, 4096, 12), ideal)
    for policy in ("paper_ceil", "best_integer"):
        result = run_qsa(loader, db, target, QsaConfig(layer_policy=policy, rng_seed=12))
        assert (result.distance, result.layers_used) == (d_min, 0)
        assert result.accuracy > one_layer_accuracy


def test_degraded_fallback_is_flagged_and_sound():
    # the balanced two-entry geometry is a coin flip per sample, so with one
    # shot per probe some seeds sample no entry at any probed distance; the
    # fallback must still return a database entry at its true distance
    db = Database(3, ("000", "111"))
    target = TargetSequence("100")
    saw_degraded = False
    for seed in range(12):
        result = run_qsa(exact_loader(db), db, target, QsaConfig(rng_seed=seed, shots=1))
        assert result.match in db.entries
        assert result.distance == hamming(result.match, target.bits)
        saw_degraded = saw_degraded or result.degraded
    assert saw_degraded


def test_fallback_keeps_the_first_nearest_entry_observed(monkeypatch):
    # 101 and 011 both sit at distance 2 and are sampled only at delta 1,
    # where neither is accepted, 101 first; delta 2 samples no entry. The
    # fallback carries the first nearest entry seen, not the last, and not
    # the one of lower basis index
    db = Database(3, ("100", "011", "101"))
    target = TargetSequence("000")
    layout = RegisterLayout(3)
    samples = iter(
        [
            {layout.pack_index(0b101, 0b101, 2): 7},
            {layout.pack_index(0b011, 0b011, 2): 7},
            {layout.pack_index(0b000, 0b000, 0): 7},
            {layout.pack_index(0b000, 0b000, 0): 7},
        ]
    )
    monkeypatch.setattr(qsa, "sample_counts", lambda state, shots, seed: next(samples))
    result = run_qsa(exact_loader(db), db, target, QsaConfig(rng_seed=0, repeats=2))
    assert result.delta_trace == (1, 1, 2, 2)
    assert (result.match, result.distance, result.degraded) == ("101", 2, True)


# no shrink phase: shrinking a failing 15-qubit example takes minutes
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(max_examples=5, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(instance_seed=st.integers(0, 2**32 - 1), requested=st.floats(0.0, 1.0, exclude_min=True))
def test_diagonal_tail_leaves_every_probability(n, instance_seed, requested):
    # a calibrated loader ends in the RZ tree that sets its phases; the
    # search with and without that tail agrees on every full-register
    # probability, at every delta and p = 0..3
    db = random_database(n, "floor", [instance_seed, 0])
    target = random_target(n, [instance_seed, 1])
    loader = calibrated_loader(db, requested, instance_seed)
    layout = RegisterLayout(n)
    preps = [
        initialisation_unitary(circuit, target, layout)
        for circuit in (loader, strip_diagonal_tail(loader))
    ]
    for delta in range(n + 1):
        layers = [grover_layer(prep, phase_oracle(layout, delta)) for prep in preps]
        states = [run_circuit(prep) for prep in preps]
        for p in range(4):
            if p:
                states = [apply_circuit(s, layer) for s, layer in zip(states, layers)]
            full, stripped = (s.probabilities() for s in states)
            assert np.max(np.abs(full - stripped)) <= 1e-12, (delta, p)


def _random_diagonal_gates(n, rng, count):
    gates = []
    for _ in range(count):
        qubits = [int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)]]
        controls = [(q, int(rng.integers(2))) for q in qubits[1:]]
        kind = rng.integers(3)
        if kind == 0:
            gates.append(rz(qubits[0], float(rng.uniform(-np.pi, np.pi)), controls))
        elif kind == 1:
            gates.append(z(qubits[0]))
        else:
            gates.append(z(qubits[0], controls))
    return tuple(gates)


def test_run_qsa_ignores_a_diagonal_tail():
    # the loader ends in an RY, so the tail appended here is the only one
    # stripped, and every field of the result comes out the same
    rng = np.random.default_rng(17)
    for n in (3, 4, 5):
        for requested in (1.0, 0.7, 0.3):
            db = random_database(n, "floor", rng)
            target = random_target(n, rng)
            loader = calibrated_loader(db, requested, int(rng.integers(2**31)))
            ends = ry(int(rng.integers(n)), float(rng.uniform(0.1, 3.0)))
            loader = Circuit(n, loader.gates + (ends,))
            tailed = Circuit(n, loader.gates + _random_diagonal_gates(n, rng, 6))
            config = QsaConfig(rng_seed=int(rng.integers(2**31)))
            assert run_qsa(tailed, db, target, config) == run_qsa(loader, db, target, config)


def test_all_diagonal_loader_runs_as_the_empty_loader():
    rng = np.random.default_rng(23)
    db = random_database(4, "floor", rng)
    target = random_target(4, rng)
    config = QsaConfig(rng_seed=23)
    diagonal = Circuit(4, _random_diagonal_gates(4, rng, 8))
    assert strip_diagonal_tail(diagonal).gates == ()
    assert run_qsa(diagonal, db, target, config) == run_qsa(Circuit(4), db, target, config)


def test_loader_width_mismatch():
    db = Database(3, ("101", "010"))
    wide_db = Database(4, ("1010",))
    with pytest.raises(ValueError):
        run_qsa(exact_loader(wide_db), db, TargetSequence("101"), QsaConfig(rng_seed=0))
    with pytest.raises(ValueError):
        run_qsa(exact_loader(db), db, TargetSequence("1011"), QsaConfig(rng_seed=0))


def test_wide_database_refused_before_allocation(monkeypatch):
    # the CLI's width refusal holds on the library path too: a 9-bit
    # database would need a 22-qubit search register
    db = Database(9, ("000000000", "111111111"))
    loader = exact_loader(db)
    allocations = []

    def spy(*args):
        allocations.append(args)
        raise AssertionError("search register allocated")

    monkeypatch.setattr(simcore, "basis_state", spy)
    with pytest.raises(ValueError, match="9 bits wide, over the limit of 8"):
        run_qsa(loader, db, TargetSequence("000000001"), QsaConfig(rng_seed=0))
    assert allocations == []


def test_result_record_schema():
    db = Database(3, ("101", "010"))
    target = TargetSequence("111")
    config = QsaConfig(rng_seed=5)
    record = result_record(run_qsa(exact_loader(db), db, target, config), db, target, config)
    assert list(record) == [
        "n", "N", "target", "d_min_classical", "match",
        "distance", "layers", "shots", "accuracy", "seed", "degraded",
    ]
    assert record["n"] == 3
    assert record["N"] == 2
    assert record["target"] == "111"
    assert record["d_min_classical"] == 1
    assert record["seed"] == 5
    assert record["shots"] == 4096


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


def _unreached_skeleton(target, goal):
    """A stand-in for gasp's skeleton whose fitness 0.0 never beats the archive."""
    return Genome([], 0.0)


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
        # applied as one signed permutation, so they go gate by gate. The
        # skeleton, whose CNOT chains are such runs, is stubbed out
        monkeypatch.setattr(gasp, "_skeleton", _unreached_skeleton)
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


# Probes start from the loaded data block, with the gate-level amplitudes:
# a probe's run_circuit starts from the basis state |0, t, 0> the target
# load writes, and the loader fills the one block of 2^n amplitudes at
# |., t, 0>. Compared with np.array_equal against the kernel's per-gate
# update on the whole register, so only the sign of a zero may differ.
def _loader(kind, db, seed, requested):
    if kind == "exact":
        return exact_loader(db)
    if kind == "calibrated":
        return calibrated_loader(db, requested, seed)
    if kind == "skeleton":
        # the fitted layered skeleton for the perturbed database state
        perturbed, _ = perturb_state(database_state(db), requested, seed)
        return genome_circuit(gasp._skeleton(perturbed, 0.99), db.n)
    # a short GA run, without the skeleton: a loader far from the database
    # state, with CNOTs
    with mock.patch.object(gasp, "_skeleton", _unreached_skeleton):
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
@pytest.mark.parametrize("kind", ["exact", "calibrated", "short_ga", "skeleton"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(max_examples=2, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(instance_seed=st.integers(0, 2**32 - 1), requested=st.floats(0.0, 1.0, exclude_min=True))
def test_probes_from_the_loaded_block_equal_the_whole_search_circuit(
    n, kind, instance_seed, requested
):
    db = random_database(n, "floor", [instance_seed, 0])
    target = random_target(n, [instance_seed, 1])
    loader = _loader(kind, db, instance_seed, requested)
    fused = []
    apply = simcore._apply_signed_permutation

    def spy(tensor, run, classes):
        fused.append(run)
        return apply(tensor, run, classes)

    with mock.patch.object(simcore, "_apply_signed_permutation", spy):
        _assert_probes_start_from_the_loaded_block(db, target, loader)
    if kind == "skeleton" and n >= 4:
        # each CNOT chain of three or more, and its inverse in the
        # diffusion, is one run of the fused X-run kernel
        chain = [simcore.cnot(q, q + 1) for q in range(n - 1)]
        assert chain in fused and chain[::-1] in fused
