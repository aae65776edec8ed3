"""Dense statevector simulator: gates, circuits, sampling, fidelity.

Conventions used throughout the package:

- Qubit 0 is the least-significant bit of the basis-state index, and a
  measurement outcome is that index.
- Global phase is never observable; state comparisons go through
  ``fidelity`` rather than amplitude equality.

Statevectors and circuits are plain values. Every operation returns a new
object and never mutates its inputs, so independent instances can be used
concurrently without coordination.
"""
from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
from math import cos, sin
from operator import attrgetter

import numpy as np

ROTATION_KINDS = frozenset({"RX", "RY", "RZ"})
# X permutes amplitudes, Z flips signs, the rest mix; every kind takes controls
GATE_KINDS = frozenset({"X", "Z", "H", "RX", "RY", "RZ"})

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_PACK_SELECT = struct.Struct("4q").pack
_UNPACK_SELECT = struct.Struct("4q").unpack
_WHOLE_AXIS = slice(None)
_MAX_QUBIT = attrgetter("max_qubit")


def _normalize_controls(controls) -> tuple[tuple[int, int], ...]:
    """The (qubit, polarity) pairs as a tuple of int pairs."""
    out = []
    for c in controls:
        if not isinstance(c, (tuple, list)) or len(c) != 2:
            raise ValueError(f"a control is a (qubit, polarity) pair, got {c!r}")
        q, pol = int(c[0]), int(c[1])
        if pol not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {pol}")
        out.append((q, pol))
    return tuple(out)


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, one target qubit, optional polarity-aware controls.

    ``controls`` is a tuple of (qubit, polarity) pairs; the gate acts only
    on basis states where every control qubit matches its polarity. All
    kinds accept controls (rotations included, which the state-preparation
    circuits rely on). ``angle`` is required for RX/RY/RZ and forbidden
    otherwise.

    Construction also fixes what applying the gate needs, none of it
    compared: the 2x2 matrix on the target as 64 packed bytes, the highest
    qubit touched (``max_qubit``), the index of the target's 0-half and
    1-half in a (2,)*q tensor view of the amplitudes, and the packed
    (target, max_qubit, control mask, control value) that
    ``run_sequences`` and ``apply_circuit``'s run and level tests read. The
    read-only ``matrix`` array is a view of those bytes, built on first
    use and kept on the gate: ``run_sequences`` reads the bytes alone, so
    a synthesis builds one only for the gates of the circuit it returns.
    """

    kind: str
    target: int
    controls: tuple[tuple[int, int], ...] = ()
    angle: float | None = None
    max_qubit: int = field(init=False, repr=False, compare=False)
    _halves: tuple[tuple, tuple] = field(init=False, repr=False, compare=False)
    _select: bytes = field(init=False, repr=False, compare=False)
    _coefficients: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = self.kind
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        target = int(self.target)
        controls = _normalize_controls(self.controls)
        angle = self.angle
        if kind in ROTATION_KINDS:
            if angle is None:
                raise ValueError(f"{kind} requires an angle")
            angle = float(angle)
        elif angle is not None:
            raise ValueError(f"{kind} does not take an angle")
        touched = (target, *(q for q, _ in controls))
        if len(set(touched)) != len(touched):
            raise ValueError(f"controls and target must be disjoint: {list(touched)}")
        if min(touched) < 0:
            raise ValueError(f"qubit indices must be >= 0, got {list(touched)}")
        top = max(touched)
        # qubit k is axis -(k + 1): an index over the trailing axes fits
        # every register wider than the gate's highest qubit
        index = [_WHOLE_AXIS] * (top + 1)
        for q, pol in controls:
            index[top - q] = pol
        axis = top - target
        index[axis] = 0
        half0 = (Ellipsis, *index)
        index[axis] = 1
        # a basis index meets the controls when (index & mask) == value;
        # no register run_sequences can allocate reaches qubit 63, so a gate
        # that does keeps mask = value = 0 and fails its range check on top
        mask = value = 0
        if top < 63:
            for q, pol in controls:
                mask |= 1 << q
                value |= pol << q
        # one write for every field: the class is frozen, and this runs for
        # each gate a synthesis mutation or a circuit inversion creates
        vars(self).update(
            target=target,
            controls=controls,
            angle=angle,
            max_qubit=top,
            _halves=(half0, (Ellipsis, *index)),
            _select=_PACK_SELECT(target, top, mask, value),
            _coefficients=_pack_coefficients(kind, angle),
        )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 2x2 complex128 matrix on the target, a read-only view of its bytes."""
        return np.ndarray((2, 2), np.complex128, self._coefficients)

    def __reduce__(self):
        # rebuild through the constructor, so copies and unpickled gates get
        # the same coefficients and kernel index as the original
        return Gate, (self.kind, self.target, self.controls, self.angle)

    def qubits(self) -> tuple[int, ...]:
        return (self.target, *(q for q, _ in self.controls))

    def with_angle(self, angle: float) -> "Gate":
        """The same rotation on the same qubits and controls, at another angle.

        Equal in every field to ``Gate(kind, target, controls, angle)``,
        but reuses this gate's validated fields and kernel index and packs
        only the new coefficients; it builds its own ``matrix`` on first
        use, never sharing this gate's.
        """
        if self.kind not in ROTATION_KINDS:
            raise ValueError(f"{self.kind} does not take an angle")
        angle = float(angle)
        gate = object.__new__(Gate)
        fields = vars(gate)
        fields.update(vars(self))
        fields.pop("matrix", None)
        fields["angle"] = angle
        fields["_coefficients"] = _pack_coefficients(self.kind, angle)
        return gate

    def inverse(self) -> "Gate":
        if self.kind in ROTATION_KINDS:
            return self.with_angle(-self.angle)
        return self  # X, Z and H are self-inverse


def x(target: int, controls=()) -> Gate:
    return Gate("X", target, controls)


def z(target: int, controls=()) -> Gate:
    return Gate("Z", target, controls)


def h(target: int) -> Gate:
    return Gate("H", target)


def rx(target: int, angle: float, controls=()) -> Gate:
    return Gate("RX", target, controls, angle)


def ry(target: int, angle: float, controls=()) -> Gate:
    return Gate("RY", target, controls, angle)


def rz(target: int, angle: float, controls=()) -> Gate:
    return Gate("RZ", target, controls, angle)


def cnot(control: int, target: int) -> Gate:
    return x(target, ((control, 1),))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed qubit count."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        # one C-level pass for the common, valid case; the loop runs only to
        # name the offending gate
        if gates and max(map(_MAX_QUBIT, gates)) >= self.num_qubits:
            _raise_out_of_range(
                next(g for g in gates if g.max_qubit >= self.num_qubits), self.num_qubits
            )

    def __len__(self) -> int:
        return len(self.gates)


def _raise_out_of_range(gate: Gate, num_qubits: int):
    bad = [q for q in gate.qubits() if q >= num_qubits]
    raise ValueError(f"gate {gate.kind} touches qubits {bad} outside [0, {num_qubits})")


def concat(*circuits: Circuit) -> Circuit:
    """Join circuits acting on the same register, in order."""
    widths = {c.num_qubits for c in circuits}
    if len(widths) != 1:
        raise ValueError(f"cannot concatenate circuits of differing widths {sorted(widths)}")
    gates: list[Gate] = []
    for c in circuits:
        gates.extend(c.gates)
    return Circuit(circuits[0].num_qubits, tuple(gates))


def invert(circuit: Circuit) -> Circuit:
    """Exact adjoint: reversed order, each gate inverted."""
    return Circuit(circuit.num_qubits, tuple(g.inverse() for g in reversed(circuit.gates)))


@dataclass
class Statevector:
    """Dense complex amplitudes over the 2^num_qubits computational basis."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got shape {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.amplitudes.copy())


def basis_state(num_qubits: int, index: int) -> Statevector:
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(num_qubits, amps)


_PACK_2X2 = struct.Struct("8d").pack

# the 2x2 matrices as the row-major (real, imag) parts of their entries,
# packed as 8 doubles: a real entry takes imaginary part +0.0, as numpy's
# conversion of a float does
_FIXED_COEFFICIENTS = {
    "H": _PACK_2X2(_SQRT2_INV, 0.0, _SQRT2_INV, 0.0, _SQRT2_INV, 0.0, -_SQRT2_INV, 0.0),
    "X": _PACK_2X2(0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    "Z": _PACK_2X2(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0),
}


def _pack_coefficients(kind: str, angle: float | None) -> bytes:
    """The gate's 2x2 complex128 matrix, packed row-major as 64 bytes."""
    fixed = _FIXED_COEFFICIENTS.get(kind)
    if fixed is not None:
        return fixed
    c, s = cos(angle / 2.0), sin(angle / 2.0)
    if kind == "RX":
        off = -1j * s
        return _PACK_2X2(c, 0.0, off.real, off.imag, off.real, off.imag, c, 0.0)
    if kind == "RY":
        return _PACK_2X2(c, 0.0, -s, 0.0, s, 0.0, c, 0.0)
    # RZ
    u00, u11 = np.exp(-0.5j * angle), np.exp(0.5j * angle)
    return _PACK_2X2(u00.real, u00.imag, 0.0, 0.0, 0.0, 0.0, u11.real, u11.imag)


def _apply_gate_inplace(tensor: np.ndarray, gate: Gate) -> None:
    """Apply one gate to amplitudes viewed as a (2,)*q tensor, in place.

    The gate's precomputed halves fix every control at its polarity and
    the target at 0 or 1, so each half is a strided view of the basis
    states the gate pairs up; the stride-based single-qubit update of
    standard statevector simulators (Jones et al., 2019, QuEST).
    """
    half0, half1 = gate._halves
    if gate.kind == "Z":
        tensor[half1] *= -1.0
        return
    a = tensor[half0].copy()
    if gate.kind == "X":
        tensor[half0] = tensor[half1]
        tensor[half1] = a
        return
    b = tensor[half1]
    u = gate.matrix
    # 0-d views of the entries: numpy multiplies by these without the
    # per-call conversion that a Python or numpy scalar costs
    tensor[half0] = u[0, 0, ...] * a + u[0, 1, ...] * b
    tensor[half1] = u[1, 0, ...] * a + u[1, 1, ...] * b


# a run's key names the gates that move amplitudes (x) and those that negate
# them (z); their packed _select bytes say on which basis states
_RUN_CLASS = {"X": "x", "Z": "z"}
_FUSED_RUN_MIN_GATES = 3
# a level of two or three gates saves less than looking for levels costs on
# the short stretches of small registers, where most stretches are that long
_LEVEL_MIN_GATES = 4


class _SignedPermutations:
    """Least-recently-used cache of the signed permutations runs apply.

    An entry maps (width, class string, joined ``_select`` bytes) to the
    run's gather indices and the basis indices it then negates: read-only
    intp arrays, None where the run moves no amplitude or negates none.
    The key costs two joins, not a hash of every gate's fields.

    The entries take at most ``MAX_BYTES``, 32 MiB; past it the least
    recently used go. A blind n = 8 search (2n + k = 20 qubits) holds 3
    entries, 9.0 MiB, and one pass of the ``align``, ``sweep`` and
    ``verify`` benchmarks 10, 17 and 31 entries, 0.38, 0.45 and 1.13 MiB.
    An entry takes at most 16 bytes per amplitude, so ``fits`` admits runs
    on at most 21 qubits; wider ones go gate by gate.
    """

    MAX_BYTES = 32 << 20

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def fits(self, num_qubits: int) -> bool:
        return 16 << num_qubits <= self.MAX_BYTES

    def lookup(self, num_qubits: int, classes: str, run: list[Gate]):
        key = (num_qubits, classes, b"".join([gate._select for gate in run]))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        entry = _signed_permutation(num_qubits, run)
        with self._lock:
            if key not in self._entries:  # another thread may have built it
                self._entries[key] = entry
                self.nbytes += _entry_bytes(entry)
            while self.nbytes > self.MAX_BYTES:
                self.nbytes -= _entry_bytes(self._entries.popitem(last=False)[1])
        return entry


def _entry_bytes(entry) -> int:
    return sum(a.nbytes for a in entry if a is not None)


def _signed_permutation(num_qubits: int, run: list[Gate]):
    """The gather indices (None for the identity) and negated indices of a run.

    Applied gate by gate to signed labels 1..2^q, the run leaves label
    +-(j + 1) at index i exactly when it moves amplitude j to i, times that
    sign.
    """
    labels = np.arange(1.0, (1 << num_qubits) + 1.0)
    tensor = labels.reshape((2,) * num_qubits)
    for gate in run:
        _apply_gate_inplace(tensor, gate)
    negated = np.flatnonzero(labels < 0.0)
    source = np.abs(labels, out=labels).astype(np.intp)
    source -= 1
    if np.array_equal(source, np.arange(1 << num_qubits)):
        source = None
    else:
        source.flags.writeable = False
    if not len(negated):
        negated = None
    else:
        negated.flags.writeable = False
    return source, negated


_RUNS = _SignedPermutations()


def _fused_classes(run: list[Gate], num_qubits: int) -> str | None:
    """A run of X and Z gates' class string, if it is fused into one signed permutation."""
    if len(run) < _FUSED_RUN_MIN_GATES or not _RUNS.fits(num_qubits):
        return None
    classes = "".join([_RUN_CLASS[gate.kind] for gate in run])
    if "x" in classes and any(gate.controls for gate in run):
        return classes
    return None


def _apply_signed_permutation(tensor: np.ndarray, run: list[Gate], classes: str) -> np.ndarray:
    """Apply a fused run of X and Z gates; return the amplitudes' tensor.

    The result is ``tensor`` itself, updated in place, unless the run is
    gathered into a new array.
    """
    source, negated = _RUNS.lookup(tensor.ndim, classes, run)
    flat = tensor.reshape(-1)
    if source is not None:
        flat = flat[source]
    if negated is not None:
        flat[negated] *= -1.0
    return flat.reshape(tensor.shape)


def _signed(gate: Gate) -> bool:
    return gate.kind in _RUN_CLASS


def _level_key(gate: Gate):
    # the kind, and the packed target, highest qubit and control mask; X and
    # Z gates swap or negate rather than multiply, so they never join a level
    return None if gate.kind in _RUN_CLASS else (gate.kind, gate._select[:24])


def _level_prefixes(level: list[Gate]):
    """Where a level's gates sit among their target's control prefixes, or None.

    The gates share a kind, a target j and a control mask. They are one
    level when that mask is qubits j+1..top and no two of them sit at
    the same control value: a slice for an ascending run of prefixes, an
    index array for any other order.
    """
    target, top, mask, _ = _UNPACK_SELECT(level[0]._select)
    if mask != (1 << top + 1) - (1 << target + 1):
        return None
    prefixes = [_UNPACK_SELECT(gate._select)[3] >> target + 1 for gate in level]
    first = prefixes[0]
    if prefixes == list(range(first, first + len(prefixes))):
        return slice(first, first + len(prefixes))
    if len(set(prefixes)) < len(prefixes):
        return None
    return np.array(prefixes, dtype=np.intp)


def _apply_level(tensor: np.ndarray, level: list[Gate], prefixes) -> None:
    """Apply a level's gates, which touch disjoint pairs, as one update in place.

    ``tensor`` is C-contiguous, so it reshapes with no copy to (rows,
    2^(top - j), 2, 2^j), for target j and highest qubit top: control
    prefix, target bit, the qubits below the target.
    Every gate's pairs get ``_apply_gate_inplace``'s elementwise
    arithmetic, u00*a + u01*b and u10*a + u11*b, with its own matrix
    entries broadcast over them.
    """
    target = level[0].target
    view = tensor.reshape(-1, 1 << (level[0].max_qubit - target), 2, 1 << target)
    u = np.frombuffer(b"".join([gate._coefficients for gate in level]), np.complex128)
    # column 0 and column 1 of every gate's matrix, shaped (gates, 2, 1)
    u = u.reshape(-1, 2, 2, 1)
    view[:, prefixes] = u[:, :, 0] * view[:, prefixes, :1] + u[:, :, 1] * view[:, prefixes, 1:]


def _apply_gates(tensor: np.ndarray, gates: list[Gate]) -> None:
    """Apply gates in order, in place, each level (``_level_prefixes``) as one update."""
    if len(gates) < _LEVEL_MIN_GATES:
        for gate in gates:
            _apply_gate_inplace(tensor, gate)
        return
    for key, group in groupby(gates, _level_key):
        group = list(group)
        prefixes = None
        if key is not None and len(group) >= _LEVEL_MIN_GATES:
            prefixes = _level_prefixes(group)
        if prefixes is None:
            for gate in group:
                _apply_gate_inplace(tensor, gate)
        else:
            _apply_level(tensor, group, prefixes)


def _apply_live_rows(tensor: np.ndarray, stretch: list[Gate]) -> None:
    """Apply a stretch of gates that are not fused, in place.

    The stretch's width w is its highest qubit, Z gates left out, plus
    one. Every gate below w acts within rows of 2^w consecutive
    amplitudes, and a Z keeps every amplitude nonzero or zero wherever it
    acts. So the rows that hold a nonzero amplitude stay the same through
    the stretch, and when some are all zero, one ``any`` finds them: the
    gates below w go to a gathered copy of those rows, which is then
    written back, and a Z that reaches w or above goes to ``tensor`` in
    between. Otherwise, or when w spans the register, every gate goes to
    ``tensor`` itself. ``tensor`` is C-contiguous, so its rows are a view.
    """
    width = max([gate.max_qubit for gate in stretch if gate.kind != "Z"], default=-1) + 1
    if width < tensor.ndim:
        rows = tensor.reshape(-1, 1 << width)
        live = np.flatnonzero(rows.any(axis=1))
        if len(live) < len(rows):
            for inside, part in groupby(stretch, lambda gate: gate.max_qubit < width):
                if not inside:  # Z gates alone
                    for gate in part:
                        _apply_gate_inplace(tensor, gate)
                    continue
                block = rows[live].reshape((len(live),) + (2,) * width)
                _apply_gates(block, list(part))
                rows[live] = block.reshape(len(live), -1)
            return
    _apply_gates(tensor, stretch)


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """Apply every gate in order, returning a new statevector.

    The gates fall into maximal runs of X and Z gates, with any controls,
    and maximal runs of the other kinds, which mix amplitudes.

    A run of three or more X and Z gates, with an X gate and a controlled
    gate among them, is fused: applied as one signed permutation, one
    gather ``out[source]``, skipped where the run moves no amplitude,
    then one indexed negation. Both index arrays are found once per
    distinct run, by applying its gates to signed index labels, and kept
    in a cache bounded in bytes (see ``_SignedPermutations``). Moving a
    value and multiplying it by -1.0 are both exact, so every amplitude
    equals its gate-by-gate value; only the sign of a zero can differ. No
    other X and Z run is cached: a run of uncontrolled gates is a
    per-target load, which would add a cache entry per target; a run of
    Z gates alone moves nothing; and a run of one or two gates costs
    about what the gather does.

    The circuit splits only at fused runs. Each stretch between them,
    mixing runs and X and Z runs that are not fused, goes gate by gate
    to the rows that hold a nonzero amplitude when it starts, gathered
    into one block and scattered back (see ``_apply_live_rows``). A
    search's loader, CNOTs and all, thus touches the one 2^n row its
    state lives in. This is exact too: a live row gets the same
    elementwise arithmetic as in place, and a row of zeros would only
    have been rewritten with zeros. Within a stretch, four or more
    consecutive gates of one kind that share a target and the control
    qubits above it, each at its own control value, are one multiplexed
    update (see ``_level_prefixes``): they touch disjoint pairs, so they
    commute, and each pair gets the arithmetic its own gate would give it.
    """
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit acts on {circuit.num_qubits} qubits but state has {state.num_qubits}"
        )
    # C-contiguous, so the reshape is a view
    tensor = state.amplitudes.copy().reshape((2,) * state.num_qubits)
    stretch = []
    for signed, run in groupby(circuit.gates, _signed):
        run = list(run)
        classes = _fused_classes(run, tensor.ndim) if signed else None
        if classes is None:
            stretch += run
            continue
        if stretch:
            _apply_live_rows(tensor, stretch)
            stretch = []
        tensor = _apply_signed_permutation(tensor, run, classes)
    if stretch:
        _apply_live_rows(tensor, stretch)
    return Statevector(state.num_qubits, tensor.reshape(-1))


def leading_basis(circuit: Circuit) -> tuple[int, int]:
    """The basis index a circuit's leading uncontrolled X gates write, and their count.

    A qubit's bit is the parity of its X gates in that run on |0...0>; a
    circuit that opens with any other gate gives (0, 0).
    """
    index = count = 0
    for gate in circuit.gates:
        if gate.kind != "X" or gate.controls:
            break
        index ^= 1 << gate.target
        count += 1
    return index, count


def run_circuit(circuit: Circuit) -> Statevector:
    """Apply the circuit to |0...0>.

    The circuit's leading uncontrolled X gates only move the one nonzero
    amplitude, so the run starts from the basis state they write
    (``leading_basis``) and applies the rest, with the gate-by-gate
    amplitudes. A search circuit's target load thus never enters the run
    cache, and its loader starts on one live row.
    """
    index, count = leading_basis(circuit)
    rest = Circuit(circuit.num_qubits, circuit.gates[count:])
    return apply_circuit(basis_state(circuit.num_qubits, index), rest)


def run_sequences(num_qubits: int, sequences) -> np.ndarray:
    """Apply each of P gate sequences to |0...0>, all in one lockstep pass.

    Returns a (P, 2^num_qubits) array whose row i equals, element for
    element, ``run_circuit`` on sequence i; only a zero's sign can differ,
    since X and Z gates go through their matrices here rather than
    a swap or a negation. Step j applies every row's
    j-th gate at once: each row gathers the 0-half ``a`` and 1-half ``b``
    of its target's pairs and takes ``u00*a + u01*b`` and ``u10*a + u11*b``,
    the single-state kernel's elementwise arithmetic, with the row's
    matrix entries broadcast over its pairs. Pairs that fail the row's
    controls, and rows whose sequence has ended, keep their amplitudes.
    For many short sequences on a narrow register this replaces per-gate
    numpy calls on a handful of amplitudes with a few calls per step.
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    dim = 1 << num_qubits
    count = len(sequences)
    states = np.zeros((count, dim), dtype=np.complex128)
    states[:, 0] = 1.0
    lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    depth = int(lengths.max(initial=0))
    if depth == 0:
        return states
    flat = list(chain.from_iterable(sequences))

    selects = np.frombuffer(b"".join([gate._select for gate in flat]), np.int64)
    target, top, mask, value = selects.reshape(-1, 4).T
    if top.max() >= num_qubits:
        _raise_out_of_range(next(g for g in flat if g.max_qubit >= num_qubits), num_qubits)

    # pairs[t, h]: the basis indices whose bit t is h, ascending
    half = np.arange(dim >> 1)
    zero = np.array([(half >> t << (t + 1)) | (half & ((1 << t) - 1)) for t in range(num_qubits)])
    pairs = np.stack([zero, zero | (1 << np.arange(num_qubits))[:, None]], axis=1)

    # the grids are step-major, so that step j reads the contiguous block
    # [j]: the gate at step j of row p lands in slot j * P + p, and
    # np.nonzero lists the live (row, step) cells in the flattened
    # sequences' order. The padding after a sequence ends meets no pair,
    # so its row keeps its amplitudes
    rows, steps = np.nonzero(np.arange(depth) < lengths[:, None])
    slots = steps * count + rows
    target_grid = np.zeros(depth * count, dtype=np.intp)
    target_grid[slots] = target
    met = np.zeros((depth * count, dim >> 1), dtype=bool)
    met[slots] = (zero[target] & mask[:, None]) == value[:, None]
    coef = np.zeros((depth * count, 2, 2), dtype=np.complex128)
    # every gate's coefficients are its 2x2 complex128 matrix as 64 packed
    # bytes, so one join holds every matrix in order
    coef[slots] = np.frombuffer(
        b"".join([gate._coefficients for gate in flat]), np.complex128
    ).reshape(-1, 2, 2)

    # index[j, p, h] holds row p's basis indices with its target bit equal
    # to h at step j; first[j] and second[j] are column 0 and column 1 of
    # every row's matrix, shaped (P, 2, 1); met[j] is (P, 1, 2^(n-1))
    index = pairs[target_grid.reshape(depth, count)]
    index += (np.arange(count) * dim)[:, None, None]
    coef = coef.reshape(depth, count, 2, 2)
    first, second = coef[..., :1], coef[..., 1:]
    met = met.reshape(depth, count, 1, dim >> 1)

    amps = states.reshape(-1)
    for j in range(depth):
        pair = amps[index[j]]
        new = first[j] * pair[:, :1] + second[j] * pair[:, 1:]
        amps[index[j]] = np.where(met[j], new, pair)
    return states


def sample_counts(state: Statevector, shots: int, rng_seed: int) -> dict[int, int]:
    """Sample measurement outcomes; basis-index keys, counts summing to shots.

    Deterministic for a fixed seed. Only outcomes with nonzero count
    appear, in ascending index order.

    The multinomial runs over the support alone, in ascending index
    order, each probability divided by the whole array's sum. numpy draws
    nothing for a zero probability and subtracting one is exact, so every
    count equals the full-array draw's, but for one case: a shot left
    over by rounding (of order 1e-13 probability) lands on the last index
    that can occur, where the full array put it on index 2^q - 1 at zero
    probability.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = state.probabilities()
    support = np.flatnonzero(probs)
    rng = np.random.default_rng(rng_seed)
    drawn = rng.multinomial(shots, probs[support] / probs.sum())
    hits = np.flatnonzero(drawn)
    return dict(zip(support[hits].tolist(), drawn[hits].tolist()))


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|^2, clipped to [0, 1] against roundoff."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return float(min(1.0, abs(overlap) ** 2))


# --- serialization -----------------------------------------------------------
# A "qubits=<q>" header, then one gate per line, each field only when the
# gate has it and controls in the gate's order:
#   KIND target=<t> controls=<q>:<pol>,... angle=<repr of the float>
_FIELDS = {"target", "controls", "angle"}


def serialize_circuit(circuit: Circuit) -> str:
    """The circuit as text that ``parse_circuit`` reads back to an equal one."""
    lines = [f"qubits={circuit.num_qubits}"]
    for g in circuit.gates:
        line = f"{g.kind} target={g.target}"
        if g.controls:
            line += " controls=" + ",".join(f"{q}:{pol}" for q, pol in g.controls)
        if g.angle is not None:
            line += f" angle={g.angle!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """The circuit ``serialize_circuit`` wrote; other text raises a ValueError naming its line."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("qubits="):
        raise ValueError("circuit text must start with a 'qubits=<q>' header")
    number, line = lines[0]
    try:
        num_qubits = Circuit(int(line.removeprefix("qubits="))).num_qubits
        # Gate packs a control mask for qubits below 63 alone, and no
        # statevector comes near that width
        if num_qubits > 63:
            raise ValueError(f"a circuit takes at most 63 qubits, got {num_qubits}")
        gates = []
        for number, line in lines[1:]:
            kind, *fields = line.split()
            parts = dict(f.partition("=")[::2] for f in fields)
            if len(parts) < len(fields) or not {"target"} <= parts.keys() <= _FIELDS:
                raise ValueError("a gate takes target= and optional controls= and angle=")
            controls = ()
            if "controls" in parts:
                pairs = (c.split(":") for c in parts["controls"].split(","))
                controls = tuple((int(q), int(pol)) for q, pol in pairs)
            target = int(parts["target"])
            # checked before Gate builds its kernel index, which grows with the top qubit
            if max([target, *(q for q, _ in controls)]) >= num_qubits:
                raise ValueError(f"a qubit is outside [0, {num_qubits})")
            angle = float(parts["angle"]) if "angle" in parts else None
            gates.append(Gate(kind, target, controls, angle))
    except ValueError as exc:
        raise ValueError(f"line {number} {line!r}: {exc}") from None
    return Circuit(num_qubits, tuple(gates))
