"""Record a before-and-after benchmark comparison as one JSON file.

Usage, from the repository root:

    python3 tools/bench_record.py --base 813c5e6 --out BENCH_17.json

Exports the ``--base`` revision and the working tree's tracked and
unignored files into two temporary directories, and runs each one's own
``bench/run.py`` there with ``--trace 0`` for BENCHMARK.json's
``run_seconds``: every workload at seed 1, and ``align`` also at the
held-out seed 7919. Each (workload, seed) runs ten pairs, one run per
side, alternating which side goes first, so slow drift in the machine's
speed falls on both; a claimed gain must win nine of them. The file
records every run's end-to-end metrics and pass count, the core count and
both sides' revisions, and per metric each side's median and quartiles
and how many pairs the head won, and per side how many runs were not
correct and how many operations failed in all. The benchmark keeps every
pass's outcomes, so a faster side that fits more passes reads more
memory. Per case the file therefore also fits ``peak_rss_mb`` against
the pass count by least squares, with one slope (MB per pass) for both
sides and an intercept for each, and records the slope, the base's
intercept and the head's offset from it: the head's peak less the
base's at an equal pass count.

Each scaled metric is a raw reading times the gauge's scale factor, and
the gauge can move it on paths no change touched. So next to
``small_scaled_ms``, ``large_scaled_ms`` and ``setup_s`` the file also
records each side's median raw reading (the class's mean latency, or the
median of the set-up samples) and median scale factor, all read off
``bench/run.py``'s detail line; each run keeps its own under ``raw`` and
``scale``.
Runs go one at a time; nothing under ``bench/`` is changed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = (("align", 1), ("align", 7919), ("sweep", 1), ("synth", 1), ("verify", 1))
PAIRS = 10
# each scaled metric's part of the detail line: the latency class, or set-up
SCALED = {"small_scaled_ms": "small", "large_scaled_ms": "large", "setup_s": "setup"}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str | None, into: Path) -> dict:
    """Write ``rev``'s files, or the working tree's for ``None``, under ``into``."""
    if rev is None:
        listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.split("\0")):
            source = ROOT / name
            if source.is_file():
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, into / name)
        side = {"rev": "working tree", "based_on": _git("rev-parse", "HEAD")}
    else:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
        side = {"rev": rev, "commit": _git("rev-parse", f"{rev}^{{commit}}")}
    digest = hashlib.sha256()
    for path in sorted((into / "src").rglob("*.py")):
        digest.update(str(path.relative_to(into)).encode() + b"\0" + path.read_bytes())
    side["src_sha256"] = digest.hexdigest()
    return side


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(command)} in {checkout} failed:\n{done.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    latency, speed = detail["latency"], detail["speed"]
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "passes": detail["passes"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "raw": {"small": latency["small"]["mean_ms"], "large": latency["large"]["mean_ms"],
                "setup": statistics.median(detail["setup_s_samples"])},
        "scale": {"small": speed["scale"]["small"], "large": speed["scale"]["large"],
                  "setup": speed["run_scale_by_part"]["narrow"]},
    }


def _quartiles(values: list[float]) -> list[float]:
    """First and third quartile."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _rss_per_pass(side: dict[str, list[dict]]) -> dict:
    """``peak_rss_mb`` = intercept of the side + slope * passes, by least squares.

    The slope comes from each side's spread about its own means alone, so
    a side that differs in both passes and memory cannot pass its offset
    off as MB per pass. All None when neither side's pass count varies.
    """
    points = {name: [(r["passes"], r["metrics"]["peak_rss_mb"]) for r in runs]
              for name, runs in side.items()}
    means = {name: (statistics.fmean(p for p, _ in xy), statistics.fmean(m for _, m in xy))
             for name, xy in points.items()}
    sxx = sum((p - means[name][0]) ** 2 for name, xy in points.items() for p, _ in xy)
    if not sxx:
        return {"slope_mb_per_pass": None, "intercept_mb": None, "head_offset_mb": None}
    sxy = sum((p - means[name][0]) * (m - means[name][1])
              for name, xy in points.items() for p, m in xy)
    slope = sxy / sxx
    intercept = {name: m - slope * p for name, (p, m) in means.items()}
    return {"slope_mb_per_pass": slope, "intercept_mb": intercept["base"],
            "head_offset_mb": intercept["head"] - intercept["base"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision measured as the before side")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, declared = benchmark["run_seconds"], benchmark["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_record_") as workdir:
        checkouts = {"base": Path(workdir, "base"), "head": Path(workdir, "head")}
        sides = {}
        for name, rev in (("base", args.base), ("head", None)):
            checkouts[name].mkdir()
            sides[name] = _export(rev, checkouts[name])
        runs = []
        for workload, seed in CASES:
            for repeat in range(PAIRS):
                for name in ("base", "head") if repeat % 2 == 0 else ("head", "base"):
                    run = _run(checkouts[name], workload, seed, seconds)
                    runs.append(dict(workload=workload, seed=seed, side=name, repeat=repeat, **run))
                    print(f"{workload} seed={seed} {name} #{repeat}: passes={run['passes']} "
                          f"{json.dumps(run['metrics'])}", file=sys.stderr)

    summary = {}
    for workload, seed in CASES:
        side = {name: sorted((r for r in runs if (r["workload"], r["seed"], r["side"])
                              == (workload, seed, name)), key=lambda r: r["repeat"])
                for name in ("base", "head")}
        case = {
            "passes": {name: [r["passes"] for r in side[name]] for name in side},
            "runs_not_correct": {name: sum(not r["correct"] for r in side[name]) for name in side},
            "failed_operations": {name: sum(r["failed"] for r in side[name]) for name in side},
            "peak_rss_mb_fit": _rss_per_pass(side),
        }
        for metric in declared:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            values = {s: [r["metrics"][name] for r in side[s]] for s in side}
            base, head = statistics.median(values["base"]), statistics.median(values["head"])
            case[name] = {
                "base_median": base,
                "head_median": head,
                "change_pct": 100.0 * (head / base - 1.0) if base else None,
                "base_quartiles": _quartiles(values["base"]),
                "head_quartiles": _quartiles(values["head"]),
                "head_better_pairs": sum(sign * (h - b) < 0
                                         for b, h in zip(values["base"], values["head"])),
                "pairs": len(values["base"]),
            }
            if name in SCALED:
                for reading in ("raw", "scale"):
                    medians = {s: statistics.median(r[reading][SCALED[name]] for r in side[s])
                               for s in side}
                    case[name][reading] = {
                        "base_median": medians["base"],
                        "head_median": medians["head"],
                        "change_pct": 100.0 * (medians["head"] / medians["base"] - 1.0),
                    }
        summary[f"{workload}@{seed}"] = case

    record = {
        "command": " ".join(["python3", "tools/bench_record.py", *(argv or sys.argv[1:])]),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pairs": PAIRS,
        "seconds": seconds,
        "base": sides["base"],
        "head": sides["head"],
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
