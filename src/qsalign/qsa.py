"""End-to-end minimum-distance search driver and its accuracy score.

The driver walks probe distances delta = 0, 1, ..., n, amplifies the
branches at each attempted delta, samples the full register, and accepts
the data-register value of the most frequent sampled outcome that is a
database entry at classical Hamming distance delta from the target, so
every match is an entry at its reported distance. The entries' distances
are computed once per search, so every classical fact after that is a
lookup. Accuracy is scored against the closed-form output of the same
search on an exact loader. Probes simulate the loader without its trailing
diagonal gates, which no outcome probability can see, and each probe is one
``run_circuit`` of its whole search circuit.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .grover import LAYER_POLICIES, make_plan, phase_oracle, search_circuit, success_probability
from .registers import (
    Database,
    RegisterLayout,
    TargetSequence,
    exact_loader,  # unused here, but bench/layers.py hooks qsa.exact_loader
    hamming,
    initialisation_unitary,
)
from .simcore import Circuit, run_circuit, sample_counts

logger = logging.getLogger(__name__)

# gate kinds whose matrix is diagonal in the computational basis, with any controls
_DIAGONAL_KINDS = frozenset({"RZ", "Z"})


@dataclass(frozen=True)
class QsaConfig:
    """Knobs for one driver invocation.

    repeats is the number of sampling attempts at each probe distance
    before moving on. blind disables classical match counting: every delta
    is attempted with a single amplification layer.
    """

    shots: int = 4096
    repeats: int = 1
    layer_policy: str = "paper_ceil"
    rng_seed: int = field(kw_only=True)
    blind: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.layer_policy not in LAYER_POLICIES:
            raise ValueError(f"unknown layer policy {self.layer_policy!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class QsaResult:
    """One search's answer; degraded: distance above the table's minimum, or the fallback's."""

    match: str
    distance: int
    layers_used: int
    delta_trace: tuple[int, ...]
    counts: dict[int, int]
    accuracy: float
    degraded: bool = False


def classical_min_hamming(db: Database, target: TargetSequence) -> tuple[int, set[str]]:
    """Brute-force minimum distance and the set of entries attaining it."""
    distances = {e: hamming(e, target.bits) for e in db.entries}
    d_min = min(distances.values())
    return d_min, {e for e, d in distances.items() if d == d_min}


def count_matches(db: Database, target: TargetSequence, delta: int) -> int:
    """Number of database entries at Hamming distance exactly delta."""
    if not 0 <= delta <= db.n:
        raise ValueError(f"probe distance {delta} outside [0, {db.n}]")
    return sum(1 for e in db.entries if hamming(e, target.bits) == delta)


def ideal_distribution(
    distance: dict[str, int], target: TargetSequence, delta: int, layers: int
) -> dict[int, float]:
    """Outcome probabilities after ``layers`` layers at ``delta`` on an exact loader.

    ``distance`` maps each database entry, in database order, to its
    Hamming distance h to the target t, as ``run_qsa``'s table does. Each
    entry d is one branch |d, d xor t, h>, keyed by its full-register
    basis index in that order. The c branches at distance delta share
    sin^2((2p+1) theta), sin^2 theta = c/N (Boyer, Brassard, Hoyer & Tapp,
    1998), the rest share the remainder, and with c = 0 every branch keeps
    1/N. Outcomes left out have probability zero.
    """
    layout = RegisterLayout(len(target.bits))
    t = int(target.bits, 2)
    branches = {int(e, 2): h for e, h in distance.items()}
    size = len(branches)
    c = sum(1 for h in branches.values() if h == delta)
    hit = success_probability(layers, size, c) if c else 0.0
    return {
        layout.pack_index(d, d ^ t, h): hit / c if h == delta else (1.0 - hit) / (size - c)
        for d, h in branches.items()
    }


def accuracy(counts: dict[int, int], ideal: dict[int, float]) -> float:
    """Cosine similarity between counts and ideal outcome probabilities.

    Both are keyed by basis index. ``ideal`` may leave out outcomes of
    probability zero, so the dot product runs over the sampled outcomes
    only. Scale-invariant in the counts.
    """
    if not counts:
        raise ValueError("counts histogram is empty")
    if sum(counts.values()) <= 0:
        raise ValueError("counts histogram sums to zero")
    dot = sum(c * ideal.get(outcome, 0.0) for outcome, c in counts.items())
    return dot / (math.hypot(*counts.values()) * math.hypot(*ideal.values()))


def strip_diagonal_tail(loader: Circuit) -> Circuit:
    """The loader without its maximal trailing run of diagonal gates."""
    end = len(loader.gates)
    while end and loader.gates[end - 1].kind in _DIAGONAL_KINDS:
        end -= 1
    return Circuit(loader.num_qubits, loader.gates[:end])


def run_qsa(
    db_loader: Circuit,
    db: Database,
    target: TargetSequence,
    config: QsaConfig,
) -> QsaResult:
    """Search for the database entry nearest the target.

    One table of every entry's distance to the target gives the match
    count at each delta, whether a sampled outcome is an entry, and its
    distance. Probes delta in increasing order, skipping values with zero
    classical matches unless config.blind. An attempt accepts the most
    frequent of its sampled outcomes whose data value is an entry at
    distance delta, ties going to the lowest basis index. If every
    probe is exhausted the result is flagged degraded and carries the first
    nearest entry observed in any sample (the nearest entry overall if none
    was ever observed). An accepted match above the table's minimum
    distance is flagged degraded too: the probes at the minimum accepted
    nothing.

    Accuracy compares the final attempt's histogram with
    ``ideal_distribution``, so infidelity in the loader's magnitudes lowers
    it; infidelity in its phases alone cannot.

    Every probe drops the loader's trailing diagonal gates first, which
    leaves every outcome probability as it was. Write the loader as C then
    T, T the diagonal tail on the data qubits. T commutes with the target
    load, the entangler and the popcount, which touch the data qubits only
    as controls or not at all, and with the oracle, which is diagonal, so
    T^-1 O T = O. The preparation is therefore T P', P' the preparation
    with loader C, each diffusion is T D' T^-1 with D' the diffusion about
    P'|0>, and each layer is T (D' O) T^-1. The final state is
    T (D' O)^p P'|0>, and T is diagonal and unitary, so |amplitude|^2
    is the same for every basis state.

    Each probe is one ``run_circuit`` of its whole search circuit. That
    starts from |0, t, 0>, the basis state the target load writes, and
    wherever the circuit loads, undoes or redoes the loader, the state
    lives in that one row of 2^n amplitudes at |., t, 0>. Each run of the
    loader's gates goes to the rows that hold amplitude alone, so the
    loader costs 2^n amplitude updates per gate, not 2^(2n+k). The
    amplitudes, and so the samples and the result, are the gate-by-gate
    values up to the sign of a zero (see ``simcore.run_circuit`` and
    ``simcore.apply_circuit``).
    """
    layout = RegisterLayout(db.n)
    seed_root = np.random.SeedSequence(config.rng_seed)
    loader = strip_diagonal_tail(db_loader)
    # refuses a loader or target of another width before any simulation
    prep = initialisation_unitary(loader, target, layout)
    distance = {e: hamming(e, target.bits) for e in db.entries}
    entry_at = {int(e, 2): e for e in db.entries}
    matches = Counter(distance.values())

    delta_trace: list[int] = []
    best_entry: str | None = None

    def finish(match, degraded):
        return QsaResult(
            match=match,
            distance=distance[match],
            layers_used=layers,
            delta_trace=tuple(delta_trace),
            counts=counts,
            accuracy=accuracy(counts, ideal_distribution(distance, target, delta, layers)),
            degraded=degraded,
        )

    for delta in range(db.n + 1) if config.blind else sorted(matches):
        if config.blind:
            layers = 1
        else:
            layers = make_plan(db.size, matches[delta], config.layer_policy).layers
        final = run_circuit(search_circuit(prep, phase_oracle(layout, delta), layers))
        for _ in range(config.repeats):
            delta_trace.append(delta)
            counts = sample_counts(final, config.shots, seed_root.spawn(1)[0])
            hit, top = None, 0
            for outcome, count in counts.items():  # ascending basis index
                seen = entry_at.get(layout.data_index(outcome))
                if seen is None:
                    continue
                if distance[seen] == delta and count > top:
                    hit, top = seen, count
                if best_entry is None or distance[seen] < distance[best_entry]:
                    best_entry = seen
            if hit is not None:
                return finish(hit, degraded=distance[hit] > min(matches))
        logger.debug("no acceptance at delta=%d after %d attempts", delta, config.repeats)

    if best_entry is None:
        best_entry = min(db.entries, key=lambda e: (distance[e], e))
    logger.warning(
        "probe distances exhausted; returning best observed entry at distance %d",
        distance[best_entry],
    )
    return finish(best_entry, degraded=True)


def result_record(
    result: QsaResult,
    db: Database,
    target: TargetSequence,
    config: QsaConfig,
) -> dict:
    """One flat JSON-friendly record describing a finished run."""
    d_min, _ = classical_min_hamming(db, target)
    return {
        "n": db.n,
        "N": db.size,
        "target": target.bits,
        "d_min_classical": d_min,
        "match": result.match,
        "distance": result.distance,
        "layers": result.layers_used,
        "shots": config.shots,
        "accuracy": result.accuracy,
        "seed": config.rng_seed,
        "degraded": result.degraded,
    }
