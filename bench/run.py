"""Run one benchmark workload against the qsalign sources beside this directory.

Usage, from the repository root:

    python3 bench/run.py --workload align --seed 1 --seconds 10 --trace 0

Workloads: align, sweep, synth, verify (see workloads.py and README.md).
With ``--trace 0`` the run repeats passes over the workload's inputs until
``--seconds`` have gone by (at least one whole pass) and reports the
end-to-end metrics. With ``--trace 1`` it runs one pass plain and one with
spans recorded around the calls into each qsalign module, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/``; ``--seconds`` is not used.

Standard output carries one detail line (a JSON object with the workload's
own metric names, latency tails, environment and failures) followed by the
result line: ``{"correct", "attempted", "failed", "metrics"}``. The run
exits 1 without a result line if the qsalign sources are missing.
"""
import os
import time

_T0 = time.perf_counter()

# one BLAS/OpenMP thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _import_program():
    """Import qsalign from this checkout's sources, never from elsewhere."""
    if not (SRC / "qsalign" / "__init__.py").is_file():
        sys.exit(f"error: no qsalign sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsalign

    if Path(qsalign.__file__).resolve().parent != (SRC / "qsalign").resolve():
        sys.exit(f"error: imported qsalign from {qsalign.__file__}, not from {SRC}")
    # degraded results are counted by the benchmark; the program's warning
    # lines about them would only flood stderr
    logging.getLogger("qsalign").setLevel(logging.ERROR)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("align", "sweep", "synth", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, warm up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _timer(tracer=None, gauge=None):
    """``timed(fn, label)`` -> (fn(), seconds); traced runs add a root span.

    With a gauge, the seconds leave out the time its kernel took, and the
    kernel's samples meanwhile are filed under ``label``. ``timed.clock``
    is the clock the seconds are read from.
    """
    clock = gauge.clock if gauge else time.perf_counter

    def timed(fn, label):
        start = clock()
        if gauge:
            gauge.label = label
        if tracer is None:
            result = fn()
        else:
            with tracer.span(layers.ROOT, label):
                result = fn()
        if gauge:
            gauge.label = None
        return result, clock() - start

    timed.clock = clock
    return timed


def _set_up(name: str, seed: int):
    """Input generation and one warm-up operation; returns the workload."""
    workload = workloads.WORKLOADS[name](seed)
    timed = _timer()
    for op in workload.warmup_ops():
        workload.execute(op, timed)
    return workload


def _setup_samples(args, own: float) -> list[float]:
    """This process's set-up time plus that of fresh processes doing the same."""
    samples = [own]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _latency(samples: list[float]) -> dict:
    """Mean, median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"samples": n, "mean_ms": 1e3 * statistics.fmean(ordered),
           "p50_ms": 1e3 * statistics.median(ordered)}
    if n >= 11:
        out["tail_ms"] = 1e3 * ordered[n - 11]
        out["tail_percentile"] = 100.0 * (n - 10) / n
    return out


def _quality(outcomes) -> float:
    weight = sum(o.weight for o in outcomes)
    return sum(o.score for o in outcomes) / weight if weight else 0.0


def _failed(outcomes) -> int:
    return sum(min(len(o.failures), o.attempted) for o in outcomes)


def _environment(seed: int) -> dict:
    import numpy

    cpu_model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": _commit(),
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _check_repeat(first, again, why: str) -> None:
    """The program is deterministic: the same input must give the same result."""
    if (first.score, first.weight, first.extra) != (again.score, again.weight, again.extra):
        again.failures.append(f"result differs {why}")


def _distinct(inputs: list) -> list:
    """The inputs with repeats removed, in first-seen order."""
    return list({id(op): op for op in inputs}.values())


def _measure(workload, seconds: int) -> tuple[dict, dict, list]:
    """Repeat passes over the inputs for about ``seconds``.

    Another pass starts only if at least half of it is expected to fit, so
    a run lasts ``seconds`` give or take half a pass, and always makes at
    least one.

    Latencies pool every sample of every pass. Counts take each input's
    first run; an input may appear more than once in a pass. The timed
    metrics are the measured means scaled to the reference speed (speed.py).
    """
    passes, per_pass = [], 0.0
    start = time.perf_counter()
    with speed.Gauge() as gauge:
        timed = _timer(gauge=gauge)
        while not passes or time.perf_counter() - start + 0.5 * per_pass < seconds:
            passes.append([workload.execute(op, timed) for op in workload.inputs])
            per_pass = (time.perf_counter() - start) / len(passes)
    measured_s = time.perf_counter() - start
    scale = {size: gauge.scale(parts, labels) for size, (labels, parts) in workload.gauged.items()}
    first: dict[int, object] = {}
    by_class: dict[str, list[float]] = {}
    for outcomes in passes:
        for op, outcome in zip(workload.inputs, outcomes):
            _check_repeat(first.setdefault(id(op), outcome), outcome, "on a repeated input")
            for size, s in outcome.samples:
                by_class.setdefault(size, []).append(s)
    distinct = list(first.values())
    latency = {size: _latency(by_class[size]) for size in ("small", "large")}
    quality = _quality(distinct)
    metrics = {
        "small_scaled_ms": (latency["small"]["mean_ms"] * scale["small"], "ms"),
        "large_scaled_ms": (latency["large"]["mean_ms"] * scale["large"], "ms"),
        "quality": (quality, "share"),
    }
    pass_s = [sum(o.seconds for o in outcomes) for outcomes in passes]
    detail = {
        "passes": len(passes),
        "operations_per_pass": len(workload.inputs),
        "pass_s": pass_s,
        "measured_s": measured_s,
        "speed": {
            "scale": scale,
            "parts": workload.gauged,
            "scale_by_part": {size: {part: gauge.scale((part,), labels) for part in speed.PARTS}
                              for size, (labels, _) in workload.gauged.items()},
            "run_scale_by_part": {part: gauge.scale((part,)) for part in speed.PARTS},
            "kernel_runs": {size: len(gauge.taken(parts, labels))
                            for size, (labels, parts) in workload.gauged.items()},
            "kernel_s": gauge.spent,
        },
        "latency": {size: dict(latency[size], what=workload.classes[size]) for size in latency},
        "counts": dict(workload.summary(distinct), quality=quality),
    }
    if workload.name == "sweep":
        trials = sum(o.extra["trials"] for o in distinct)
        detail["sweep_trials_per_s"] = trials * len(passes) / sum(pass_s)
    return metrics, detail, [o for outcomes in passes for o in outcomes]


def _trace(workload, spans_path: Path) -> tuple[dict, dict, list]:
    """One pass over the distinct inputs plain, then one with spans."""
    inputs = _distinct(workload.inputs)
    plain = [workload.execute(op, _timer()) for op in inputs]
    with tracing.Tracer() as tracer:
        layers.install(tracer)
        traced = [workload.execute(op, _timer(tracer)) for op in inputs]
    tracer.write(spans_path)
    per_layer, breakdown = layers.layer_metrics(tracer)
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    per_layer["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    for a, b in zip(plain, traced):
        _check_repeat(a, b, "with the tracer installed")
    units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    metrics = {name: (value, units[name]) for name, value in per_layer.items()}
    detail = {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counts": dict(workload.summary(traced), quality=_quality(traced)),
        "layers": breakdown,
    }
    return metrics, detail, plain + traced


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    # imported here, once qsalign's path is set; their import time (and
    # qsalign's) counts in the set-up time measured from _T0
    global layers, speed, tracing, workloads
    import layers
    import speed
    import tracing
    import workloads

    workload = _set_up(args.workload, args.seed)
    own_setup = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    if args.trace:
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, detail, outcomes = _trace(workload, spans_path)
    else:
        metrics, detail, outcomes = _measure(workload, args.seconds)
        # set-up runs right after the timed passes, so the run's scale
        # carries its minute-scale drift; a fresh process is too short for
        # a steady scale of its own. Set-up is imports and small calls: the
        # narrow part's work.
        setup = _setup_samples(args, own_setup)
        setup_scale = detail["speed"]["run_scale_by_part"]["narrow"]
        metrics["setup_s"] = (statistics.median(setup) * setup_scale, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        detail["setup_s_samples"] = setup

    declared = [m["name"] for m in _declared("per_layer" if args.trace else "end_to_end")]
    if sorted(declared) != sorted(metrics):
        sys.exit(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json {declared}")
    failures = [f for o in outcomes for f in o.failures]
    attempted = sum(o.attempted for o in outcomes)
    failed = _failed(outcomes)
    print(json.dumps(dict(
        {"workload": args.workload, "trace": args.trace, "env": _environment(args.seed)},
        **detail,
        failures=failures[:20],
    )))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
