"""Command-line entry point wiring the package together.

Subcommands: ``run`` (one alignment), ``sweep`` (accuracy versus
preparation fidelity), ``layers`` (accuracy versus layer count),
``gasp`` (evolve a loader circuit), ``verify`` (self-check suites).

stdout carries machine-parseable output (one JSON object for ``run``,
JSON lines for ``layers``, pass/fail lines for ``verify``); human detail
goes to stderr. Exit codes: 0 success, 1 usage error (bad flags or
malformed input files), 2 runtime failure (simulation error, unwritable
output, failed verification, degraded result under --strict).
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .checks import run_checks
from .experiments import (
    DEFAULT_FIDELITIES,
    SweepConfig,
    calibrated_loader,
    check_size,
    fidelity_sweep,
    layer_study,
    sub_seed,
    write_sweep_files,
)
from .gasp import GaConfig, gasp_prepare
from .qsa import QsaConfig, result_record, run_qsa
from .registers import (
    MAX_QUBITS,
    Alphabet,
    Database,
    RegisterLayout,
    TargetSequence,
    check_width,
    database_state,
    encode_sequence,
)
from .simcore import serialize_circuit

logger = logging.getLogger(__name__)

_POLICIES = {"paper": "paper_ceil", "best": "best_integer"}

# sub-stream tag separating a loader's perturbation from the other draws
# made under the same --seed
_PERTURB_TAG = 0x5EED


class _UsageError(Exception):
    """Bad flag values or malformed input files; exits 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for runtime failures here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(text: str) -> int:
    """--seed, shared by every subcommand: SeedSequence takes no negative entropy."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _read_lines(path: str) -> list[str]:
    text = Path(path).read_text()
    stripped = (ln.strip() for ln in text.splitlines())
    return [ln for ln in stripped if ln and not ln.startswith("#")]


def _load_alphabet(path: str | None) -> Alphabet | None:
    if path is None:
        return None
    return Alphabet(tuple(_read_lines(path)))


def _load_database(path: str, alphabet: Alphabet | None) -> Database:
    entries = _read_lines(path)
    if not entries:
        raise ValueError(f"database file {path} has no entries")
    if alphabet is not None:
        entries = [encode_sequence(e, alphabet) for e in entries]
    db = Database.from_bitstrings(entries)
    check_width(db.n)
    return db


def _load_target(text: str, alphabet: Alphabet | None, n: int) -> TargetSequence:
    bits = encode_sequence(text, alphabet) if alphabet is not None else text
    target = TargetSequence(bits)
    if len(target.bits) != n:
        raise ValueError(
            f"target is {len(target.bits)} bits but database entries are {n}"
        )
    return target


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _cmd_run(args) -> int:
    try:
        alphabet = _load_alphabet(args.alphabet)
        db = _load_database(args.db, alphabet)
        target = _load_target(args.target, alphabet, db.n)
        config = QsaConfig(
            shots=args.shots,
            repeats=args.repeats,
            layer_policy=_POLICIES[args.layer_policy],
            rng_seed=args.seed,
            blind=args.blind,
        )
        if not 0.0 < args.fidelity <= 1.0:
            raise ValueError(f"--fidelity must be in (0, 1], got {args.fidelity}")
    except (OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc

    ga_config = GaConfig(rng_seed=args.seed) if args.full else None
    loader = calibrated_loader(db, args.fidelity, sub_seed(args.seed, _PERTURB_TAG), ga_config)
    result = run_qsa(loader, db, target, config)
    record = result_record(result, db, target, config)
    line = json.dumps(record)
    print(line)
    print(
        f"match {result.match} at distance {result.distance} "
        f"({result.layers_used} layers, accuracy {result.accuracy:.4f}"
        f"{', degraded' if result.degraded else ''})",
        file=sys.stderr,
    )
    if args.out:
        Path(args.out).write_text(line + "\n")
    if result.degraded and args.strict:
        logger.error("degraded result under --strict")
        return 2
    return 0


def _cmd_sweep(args) -> int:
    try:
        sizes = _parse_int_list(args.sizes, "--sizes")
        fidelities = (
            DEFAULT_FIDELITIES
            if args.fidelities is None
            else _parse_float_list(args.fidelities, "--fidelities")
        )
        config = SweepConfig(
            qubit_sizes=sizes,
            fidelities=fidelities,
            trials_per_point=args.trials,
            shots=args.shots,
            seed=args.seed,
            db_size_rule=args.db_size_rule,
            layer_policy=_POLICIES[args.layer_policy],
        )
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    total = len(sizes) * len(config.fidelities) * args.trials

    def progress(done, all_items, record):
        if done % 50 == 0 or done == all_items:
            print(f"sweep {done}/{all_items} trials", file=sys.stderr)

    # an unwritable --out fails here, not after every trial has run
    Path(args.out).mkdir(parents=True, exist_ok=True)
    print(f"sweep: {total} trials over n={list(sizes)}", file=sys.stderr)
    result = fidelity_sweep(
        config, mode="full" if args.full else "fast", jobs=args.jobs, progress=progress
    )
    written = write_sweep_files(result, args.out)
    errors = sum(1 for r in result.records if r.error is not None)
    print(
        json.dumps(
            {
                "records": len(result.records),
                "errors": errors,
                "out_dir": str(Path(args.out)),
                "files": [p.name for p in written],
            }
        )
    )
    return 0


def _cmd_layers(args) -> int:
    try:
        check_size(args.n)
        if args.p_max < 0:
            raise ValueError(f"--p-max must be >= 0, got {args.p_max}")
        if args.shots < 1:
            raise ValueError(f"--shots must be >= 1, got {args.shots}")
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    points = layer_study(args.n, args.p_max, seed=args.seed, shots=args.shots)
    lines = [
        json.dumps(
            {"p": pt.p, "accuracy": pt.accuracy, "marked_probability": pt.marked_probability}
        )
        for pt in points
    ]
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_gasp(args) -> int:
    try:
        alphabet = _load_alphabet(args.alphabet)
        db = _load_database(args.db, alphabet)
        config = GaConfig(
            population_size=args.population,
            max_generations=args.generations,
            fidelity_target=args.fidelity_target,
            rng_seed=args.seed,
        )
    except (OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc
    # a genome holds up to 64 genes of 112 bytes at any width, so each is
    # budgeted as one row of the widest search register's 2^20 amplitudes
    budget = 1 << RegisterLayout(MAX_QUBITS).total
    if args.population << MAX_QUBITS > budget:
        raise _UsageError(
            f"--population {args.population} at {db.n} qubits needs "
            f"{args.population << MAX_QUBITS} amplitudes as {MAX_QUBITS}-qubit rows, "
            f"over the limit of {budget}"
        )

    result = gasp_prepare(database_state(db), config)
    cnots = sum(1 for g in result.circuit.gates if g.controls)
    print(
        json.dumps(
            {
                "fidelity": result.fidelity,
                "converged": result.converged,
                "generations": result.generations,
                "gates": len(result.circuit.gates),
                "cnots": cnots,
            }
        )
    )
    print(
        f"{'converged' if result.converged else 'stopped'} at fidelity "
        f"{result.fidelity:.6f} after {result.generations} generations, "
        f"{len(result.circuit.gates)} gates ({cnots} CNOT)",
        file=sys.stderr,
    )
    if args.out:
        Path(args.out).write_text(serialize_circuit(result.circuit))
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(args.level)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.ok for r in results) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsalign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="align one target against a database file")
    run_p.add_argument("--db", required=True, help="file with one entry per line")
    run_p.add_argument("--target", required=True, help="bit string, or symbols with --alphabet")
    run_p.add_argument("--alphabet", help="file with one symbol per line; encodes db and target")
    run_p.add_argument("--shots", type=int, default=4096)
    run_p.add_argument("--seed", type=_seed, default=0)
    run_p.add_argument("--repeats", type=int, default=1, help="sampling attempts per probe distance")
    run_p.add_argument("--layer-policy", choices=sorted(_POLICIES), default="best")
    run_p.add_argument("--fidelity", type=float, default=1.0, help="preparation fidelity")
    run_p.add_argument("--full", action="store_true", help="evolve the loader genetically")
    run_p.add_argument("--blind", action="store_true",
                       help="probe every distance at one layer, no classical match counts")
    run_p.add_argument("--out", help="also write the JSON record here")
    run_p.add_argument("--strict", action="store_true", help="exit 2 on a degraded result")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="accuracy versus preparation fidelity grid")
    sweep_p.add_argument("--sizes", default="3,4,5,6", help="comma-separated qubit counts")
    sweep_p.add_argument("--fidelities", default=None,
                         help="comma-separated targets (default 0.05..1.0 step 0.05)")
    sweep_p.add_argument("--trials", type=int, default=10)
    sweep_p.add_argument("--shots", type=int, default=4096)
    sweep_p.add_argument("--seed", type=_seed, default=0)
    sweep_p.add_argument("--db-size-rule", choices=("floor", "ceil"), default="floor")
    sweep_p.add_argument("--layer-policy", choices=sorted(_POLICIES), default="paper")
    sweep_p.add_argument("--full", action="store_true", help="genetic loader synthesis per trial")
    sweep_p.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most one per trial and per core"
    )
    sweep_p.add_argument("--out", default="sweep_out", help="output directory")
    sweep_p.set_defaults(func=_cmd_sweep)

    layers_p = sub.add_parser("layers", help="accuracy and marked probability per layer count")
    layers_p.add_argument("--n", type=int, required=True, help="qubits per entry")
    layers_p.add_argument("--p-max", type=int, default=8)
    layers_p.add_argument("--shots", type=int, default=4096)
    layers_p.add_argument("--seed", type=_seed, default=0)
    layers_p.add_argument("--out", help="also write the JSON lines here")
    layers_p.set_defaults(func=_cmd_layers)

    gasp_p = sub.add_parser("gasp", help="evolve a loader circuit for a database file")
    gasp_p.add_argument("--db", required=True, help="file with one entry per line")
    gasp_p.add_argument("--alphabet", help="file with one symbol per line")
    gasp_p.add_argument("--fidelity-target", type=float, default=0.99)
    gasp_p.add_argument("--population", type=int, default=100)
    gasp_p.add_argument("--generations", type=int, default=200)
    gasp_p.add_argument("--seed", type=_seed, default=0)
    gasp_p.add_argument("--out", help="write the circuit text here")
    gasp_p.set_defaults(func=_cmd_gasp)

    verify_p = sub.add_parser("verify", help="run the self-check suites")
    verify_p.add_argument("--level", choices=("quick", "full"), default="quick")
    verify_p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"qsalign: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # simulation or I/O failure past input validation
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
