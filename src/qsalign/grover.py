"""Phase oracle, diffusion, layer assembly, and layer-count theory.

A layer is an oracle circuit followed by the diffusion; amplification
never looks inside the oracle. phase_oracle flips the sign of branches
whose distance register equals the probe distance delta. diffusion
reflects about the full prepared state by conjugating a reflection about
a basis state with the initialisation circuit past its leading X gates:
about |0, t, 0> for an alignment, t the target. Both sign flips are one
controlled Z, and both are reflections, so each squares to the identity
(up to global phase, which nothing here observes).

make_plan is the one layer planner. Both of its policies scan from zero
layers, so a probe whose oracle marks every entry runs none.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .registers import RegisterLayout
from .simcore import Circuit, Statevector, concat, invert, leading_basis, x, z

# layer-count policies make_plan accepts: the paper's closed-form ceiling,
# and the exact integer argmax of the success probability
LAYER_POLICIES = ("paper_ceil", "best_integer")


@dataclass(frozen=True)
class GroverPlan:
    """Layer budget for one search pass."""

    layers: int


# built once per key: a pattern is one probe's distance bits or one
# target's register bits, few in any run, and a Circuit is immutable
@functools.lru_cache(maxsize=1024)
def _flip_sign(num_qubits: int, pattern: tuple[tuple[int, int], ...]) -> Circuit:
    """Multiply by -1 exactly on basis states matching ``pattern``.

    ``pattern`` is a tuple of (qubit, bit) pairs. One Z sits on the first
    qubit at bit 1, controlled by the others at their bits; with no such
    qubit, it sits on the first between two X gates.
    """
    host = next((i for i, (_, bit) in enumerate(pattern) if bit), 0)
    qubit, bit = pattern[host]
    core = z(qubit, pattern[:host] + pattern[host + 1:])
    wrap = () if bit else (x(qubit),)
    return Circuit(num_qubits, wrap + (core,) + wrap)


def phase_oracle(layout: RegisterLayout, delta: int) -> Circuit:
    """Multiply by -1 exactly on basis states whose distance register is delta."""
    if not 0 <= delta <= layout.n:
        raise ValueError(f"probe distance {delta} outside [0, {layout.n}]")
    pattern = tuple((q, (delta >> i) & 1) for i, q in enumerate(layout.distance))
    return _flip_sign(layout.total, pattern)


def diffusion(prep: Circuit) -> Circuit:
    """Reflection about the state ``prep`` prepares from |0...0>.

    Write the preparation as X then R, X its leading run of uncontrolled X
    gates. Undoing it, reflecting about |0...0> and redoing it is
    R X S X R^-1 in operator order, S the reflection about |0...0>, and
    X S X is the reflection about the basis state X|0...0>, whose bit on
    each qubit is the parity of its X gates: ``simcore.leading_basis``,
    the state ``simcore.run_circuit`` starts the preparation from. So the
    diffusion undoes R, flips the sign of that one basis state, and
    redoes R. Equals 2|psi><psi| - I up to global phase. An empty
    preparation gives the 3-gate reflection about |0...0>: the controlled
    Z on qubit 0 between two X gates.
    """
    index, lead = leading_basis(prep)
    rest = Circuit(prep.num_qubits, prep.gates[lead:])
    pattern = tuple((q, index >> q & 1) for q in range(prep.num_qubits))
    return concat(invert(rest), _flip_sign(prep.num_qubits, pattern), rest)


def grover_layer(prep: Circuit, oracle: Circuit) -> Circuit:
    """One amplification layer: the oracle query, then diffusion about ``prep``."""
    return concat(oracle, diffusion(prep))


def search_circuit(prep: Circuit, oracle: Circuit, layers: int) -> Circuit:
    """Full pass: preparation followed by ``layers`` amplification layers.

    Each oracle sits between the entangler and popcount that end the
    preparation and every diffusion, and their inverse, and the circuit
    ends with the entangler and popcount. ``simcore.apply_circuit``
    applies each of those runs as one cached signed permutation, with the
    gate-by-gate amplitudes: the run around an oracle moves no amplitude,
    so it is one indexed negation, and the last run is one gather.
    """
    if layers < 0:
        raise ValueError("layer count must be >= 0")
    layer = grover_layer(prep, oracle)
    return Circuit(prep.num_qubits, prep.gates + layer.gates * layers)


def marked_probability(state: Statevector, layout: RegisterLayout, delta: int) -> float:
    """Summed probability over basis states whose distance register is delta.

    The distance register holds the top bits of the index, so those states
    are one contiguous block of 2^(2n) probabilities.
    """
    if state.num_qubits != layout.total:
        raise ValueError(
            f"state spans {state.num_qubits} qubits, layout has {layout.total}"
        )
    if not 0 <= delta <= layout.n:
        raise ValueError(f"probe distance {delta} outside [0, {layout.n}]")
    return float(state.probabilities().reshape(-1, 1 << (2 * layout.n))[delta].sum())


def success_probability(p: int, database_size: int, matches: int) -> float:
    """Marked-subspace probability after p layers with exact preparation."""
    if p < 0:
        raise ValueError(f"layer count must be >= 0, got {p}")
    if not 1 <= matches <= database_size:
        raise ValueError(f"need 1 <= matches <= database size, got {matches}/{database_size}")
    theta = math.asin(math.sqrt(matches / database_size))
    return math.sin((2 * p + 1) * theta) ** 2


def make_plan(database_size: int, matches: int, policy: str = "paper_ceil") -> GroverPlan:
    """Layer plan under a policy: 'paper_ceil' or 'best_integer'.

    With c = N the oracle marks every entry, so both policies plan zero
    layers: there is nothing to amplify, and on an exact loader no layer
    count changes anything, since sin^2((2p+1) pi/2) = 1. Otherwise
    paper_ceil takes ceil((pi/4) sqrt(N/c)), which can overshoot the
    integer optimum, and best_integer the smallest p >= 0 maximising
    success_probability. For c/N <= 1/2 that scan stays inside the first
    oscillation of sin^2((2p+1) theta), whose peak is near
    pi/(4 theta) - 1/2; for coarser ratios it widens to later cycles,
    which can land nearer a maximum (c/N = 2/3 reaches 0.998 at p = 2).
    best_integer plans zero layers where no layer beats the initial
    overlap, as at c/N = 1/2 (every p gives 1/2) and c/N = 3/4 (odd p
    give exactly 0).
    """
    if policy not in LAYER_POLICIES:
        raise ValueError(f"unknown layer policy {policy!r}")
    if not 1 <= matches <= database_size:
        raise ValueError(f"need 1 <= matches <= database size, got {matches}/{database_size}")
    if matches == database_size:
        layers = 0
    elif policy == "paper_ceil":
        layers = math.ceil(math.pi / 4.0 * math.sqrt(database_size / matches))
    else:
        theta = math.asin(math.sqrt(matches / database_size))
        if 2 * matches <= database_size:
            horizon = math.ceil(math.pi / (4.0 * theta)) + 1
        else:
            horizon = math.ceil(math.pi / (2.0 * theta)) + 8
        # probabilities equal to within 1e-12 count as tied, so the
        # stationary ratio picks the shallowest p regardless of last-ulp
        # libm wiggle
        layers = max(
            range(horizon + 1),
            key=lambda p: (round(success_probability(p, database_size, matches), 12), -p),
        )
    return GroverPlan(layers)
