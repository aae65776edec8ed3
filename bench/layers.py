"""Where the traced run hooks into qsalign, and how spans become layer metrics.

Each hook names the module attribute a caller looks the function up
through, so ``("qsa", "run_circuit")`` sees the probe and reference
simulations inside ``run_qsa`` and nothing else. The span is named after
that call site (``qsa.run_circuit``) and belongs to the layer given here.
Layers are the package's modules: simcore, registers, grover, qsa, gasp,
experiments and checks. Time outside every hook but inside an operation is
the benchmark's own and is reported as ``trace.unattributed_pct``.

The program is a single process with no queue, so no layer ever waits on
another: the benchmark records busy and self time, and no waiting time.
"""
from __future__ import annotations

import statistics

import qsalign.checks as checks
import qsalign.experiments as experiments
import qsalign.gasp as gasp
import qsalign.qsa as qsa
import qsalign.registers as registers

from tracing import INFO, NAME, PARENT, START, END, Tracer, roots, self_times

ROOT = "bench.op"


def _circuit(args, kwargs, result):
    circuit = args[-1]  # run_circuit(circuit) and apply_circuit(state, circuit)
    return [len(circuit.gates), circuit.num_qubits]


def _length(args, kwargs, result):
    return len(result.gates)


def _shots(args, kwargs, result):
    return args[1]


def _layers(args, kwargs, result):
    return result.layers


def _degraded(args, kwargs, result):
    return int(result.degraded)


def _redraw(args, kwargs, result):
    return int(result[1].hermitian_seed != args[2])


def _synthesis(args, kwargs, result):
    return [result.generations, int(result.converged), len(result.circuit.gates)]


CHECK_NAMES = ("popcount", "entangler", "initialisation", "closed_form", "reflections", "end_to_end")

# (module, attribute, layer, info)
HOOKS = [
    (qsa, "run_circuit", "simcore.kernel", _circuit),
    (experiments, "run_circuit", "simcore.kernel", _circuit),
    (gasp, "run_circuit", "simcore.kernel", _circuit),
    (checks, "run_circuit", "simcore.kernel", _circuit),
    (checks, "apply_circuit", "simcore.kernel", _circuit),
    (qsa, "sample_counts", "simcore.sample", _shots),
    (qsa, "search_circuit", "grover.assembly", _length),
    (checks, "grover_layer", "grover.assembly", _length),
    (checks, "diffusion", "grover.assembly", _length),
    (checks, "phase_oracle", "grover.assembly", _length),
    (checks, "marked_probability", "grover.marked", None),
    (qsa, "make_plan", "grover.plan", _layers),
    (registers, "exact_loader", "registers.prep", _length),
    (qsa, "exact_loader", "registers.prep", _length),
    (experiments, "state_preparation_circuit", "registers.prep", _length),
    (checks, "exact_loader", "registers.prep", _length),
    (qsa, "initialisation_unitary", "registers.prep", None),
    (checks, "initialisation_unitary", "registers.prep", None),
    (qsa, "run_qsa", "qsa.run", _degraded),
    (experiments, "run_qsa", "qsa.run", _degraded),
    (checks, "run_qsa", "qsa.run", _degraded),
    (qsa, "result_record", "qsa.record", None),
    (qsa, "count_matches", "qsa.classical", None),
    (qsa, "classical_min_hamming", "qsa.classical", None),
    (experiments, "classical_min_hamming", "qsa.classical", None),
    (checks, "count_matches", "qsa.classical", None),
    (checks, "classical_min_hamming", "qsa.classical", None),
    (qsa, "accuracy", "qsa.score", None),
    (experiments, "perturb_state", "gasp.perturb", _redraw),
    (gasp, "gasp_prepare", "gasp.synth", _synthesis),
    (gasp, "genome_circuit", "gasp.genome_circuit", None),
    (experiments, "fidelity_sweep", "experiments.sweep", None),
    (experiments, "run_sweep_trial", "experiments.trial", None),
] + [(checks, f"check_{name}", f"checks.{name}", None) for name in CHECK_NAMES]

LOADERS = {"registers.exact_loader", "qsa.exact_loader", "experiments.state_preparation_circuit",
           "checks.exact_loader"}


def _site(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


LAYER_OF = {_site(m, a): layer for m, a, layer, _ in HOOKS}
LAYER_OF[ROOT] = "bench"


def install(tracer: Tracer) -> None:
    for module, attr, _, info in HOOKS:
        tracer.wrap(module, attr, _site(module, attr), info)
    tracer.count(qsa, "hamming", "qsa.hamming_evals")


def _reference_spans(spans) -> set[int]:
    """The final ``run_circuit`` of each ``run_qsa``: the ideal reference.

    It is the first ``qsa.run_circuit`` after the ``qsa.exact_loader`` call
    that ``run_qsa`` makes only to build that reference.
    """
    after_loader: set[int] = set()
    out = set()
    for index, span in enumerate(spans):
        if span[NAME] == "qsa.exact_loader":
            after_loader.add(span[PARENT])
        elif span[NAME] == "qsa.run_circuit" and span[PARENT] in after_loader:
            out.add(index)
            after_loader.discard(span[PARENT])
    return out


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics for the final output, and a fuller breakdown.

    Times are shares of the traced wall time (the summed duration of the
    operations), so they compare across runs of any length; the breakdown
    also gives them in seconds, per layer and per operation class.
    """
    spans = tracer.spans
    own = self_times(spans)
    top = roots(spans)
    wall = sum(s[END] - s[START] for s in spans if s[PARENT] is None)
    reference = _reference_spans(spans)

    self_s: dict[str, float] = {}
    busy_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    # per operation class (the root span's info): layer self time, and the
    # reference share, which is part of the kernel's self time
    by_class: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        layer = LAYER_OF[span[NAME]]
        duration = span[END] - span[START]
        self_s[layer] = self_s.get(layer, 0.0) + own[index]
        busy_s[layer] = busy_s.get(layer, 0.0) + duration
        calls[layer] = calls.get(layer, 0) + 1
        shares = by_class.setdefault(str(spans[top[index]][INFO]), {})
        shares[layer] = shares.get(layer, 0.0) + own[index]
        if index in reference:
            shares["(qsa.reference)"] = shares.get("(qsa.reference)", 0.0) + duration
        if span[PARENT] is None:
            shares["(wall)"] = shares.get("(wall)", 0.0) + duration

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def pct(seconds):
        return 100.0 * seconds / wall

    kernels = [s for s in spans if LAYER_OF[s[NAME]] == "simcore.kernel"]
    gates = sum(s[INFO][0] for s in kernels)
    amp_updates = sum(s[INFO][0] << s[INFO][1] for s in kernels)
    reference_s = sum(spans[i][END] - spans[i][START] for i in reference)
    runs = [s for s in spans if LAYER_OF[s[NAME]] == "qsa.run"]
    attempts = len(named("qsa.sample_counts"))
    syntheses = named("gasp.gasp_prepare")
    evals = len(named("gasp.run_circuit"))
    converged_gates = [s[INFO][2] for s in syntheses if s[INFO][1]]
    perturbs = named("experiments.perturb_state")

    metrics = {
        "simcore.kernel.calls": len(kernels),
        "simcore.kernel.gates": gates,
        "simcore.kernel.amp_updates": amp_updates,
        "simcore.kernel.busy_pct": pct(busy_s.get("simcore.kernel", 0.0)),
        "simcore.kernel.ns_per_amp": 1e9 * busy_s["simcore.kernel"] / amp_updates,
        "simcore.sample.calls": attempts,
        "simcore.sample.shots": sum(s[INFO] for s in named("qsa.sample_counts")),
        "simcore.sample.busy_pct": pct(busy_s.get("simcore.sample", 0.0)),
        "grover.assembly.busy_pct": pct(busy_s.get("grover.assembly", 0.0)),
        "grover.assembly.gates": sum(s[INFO] for s in spans if LAYER_OF[s[NAME]] == "grover.assembly"),
        "grover.oracle_queries": sum(s[INFO] for s in named("qsa.make_plan")),
        "registers.prep.busy_pct": pct(busy_s.get("registers.prep", 0.0)),
        "registers.loader_gates": sum(s[INFO] for s in spans if s[NAME] in LOADERS),
        "qsa.run.self_pct": pct(self_s.get("qsa.run", 0.0)),
        "qsa.probes": len(named("qsa.run_circuit")) - len(reference),
        "qsa.accept_ratio": sum(1 - s[INFO] for s in runs) / attempts if attempts else 0.0,
        "qsa.reference_pct": pct(reference_s),
        "qsa.score.busy_pct": pct(busy_s.get("qsa.score", 0.0)),
        "qsa.hamming_evals": tracer.counts["qsa.hamming_evals"],
        "gasp.perturb.calls": len(perturbs),
        "gasp.perturb.busy_pct": pct(busy_s.get("gasp.perturb", 0.0)),
        "gasp.perturb.redraws": sum(s[INFO] for s in perturbs),
        "gasp.fitness.evals": evals,
        "gasp.genome_circuit.busy_pct": pct(busy_s.get("gasp.genome_circuit", 0.0)),
        "gasp.synth.generations": sum(s[INFO][0] for s in syntheses),
        "gasp.synth.gates_p50": statistics.median(converged_gates) if converged_gates else 0,
        "experiments.trial.self_pct": pct(self_s.get("experiments.trial", 0.0)),
    }
    for name in CHECK_NAMES:
        metrics[f"checks.{name}.busy_pct"] = pct(busy_s.get(f"checks.{name}", 0.0))
    metrics["trace.unattributed_pct"] = pct(self_s.get("bench", 0.0))

    breakdown = {
        "wall_s": wall,
        "self_s": self_s,
        "busy_s": busy_s,
        "spans": calls,
        "qsa.reference_s": reference_s,
        "gasp.fitness.us_per_eval": 1e6 * busy_s.get("gasp.synth", 0.0) / evals if evals else None,
        "self_pct_by_class": {
            label: {layer: 100.0 * t / shares["(wall)"] for layer, t in sorted(shares.items())
                    if layer != "(wall)"}
            for label, shares in by_class.items()
        },
    }
    return metrics, breakdown
