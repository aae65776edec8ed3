"""Compare two saved outputs of bench/run.py for the same workload and seed.

Usage, from the repository root:

    python3 bench/run.py --workload align --seed 3 --trace 0 > a.txt
    python3 bench/run.py --workload align --seed 3 --trace 0 > b.txt
    python3 bench/compare.py a.txt b.txt

Counts must repeat exactly: the workload's own counts (``counts`` in the
detail line, such as ``align_optimal_rate`` or ``verify_passed``) and,
for traced runs, every per-layer metric in ``count`` or ``share`` units
(``grover.oracle_queries``, ``gasp.fitness.evals`` and the rest). They are
compared for equality, never within a timing bound. Timed end-to-end
metrics may be worse in the second file by at most the bound that
BENCHMARK.json gives them. Exits 1 if anything differs beyond that.
"""
import json
import sys
from pathlib import Path

EXACT_UNITS = {"count", "share"}


def _load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    (detail_a, result_a), (detail_b, result_b) = _load(argv[0]), _load(argv[1])
    same_run = ("workload", "trace")
    if [detail_a[k] for k in same_run] != [detail_b[k] for k in same_run] or (
        detail_a["env"]["seed"] != detail_b["env"]["seed"]
    ):
        sys.exit("error: the two files are not runs of the same workload, seed and trace mode")
    declared = {
        m["name"]: m
        for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())[
            "end_to_end"
        ]
    }
    problems = []
    for name, value in detail_a["counts"].items():
        if detail_b["counts"].get(name) != value:
            problems.append(f"{name}: {value!r} then {detail_b['counts'].get(name)!r} (must repeat exactly)")
    for name, a in result_a["metrics"].items():
        b = result_b["metrics"][name]
        if a["unit"] in EXACT_UNITS:
            if a["value"] != b["value"]:
                problems.append(f"{name}: {a['value']!r} then {b['value']!r} (must repeat exactly)")
        elif name in declared:
            bound = declared[name]["bound"]
            change = (b["value"] - a["value"]) / a["value"]
            worse = change if declared[name]["better"] == "lower" else -change
            verdict = "worse than bound" if worse > bound else "ok"
            print(f"{name}: {a['value']:.6g} -> {b['value']:.6g} {a['unit']}"
                  f" ({change:+.1%}, bound {bound:.0%}) {verdict}")
            if worse > bound:
                problems.append(f"{name}: {change:+.1%} beyond its bound {bound:.0%}")
    for problem in problems:
        print("DIFFERS", problem)
    if not problems:
        print("counts repeat exactly; timings within bounds")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
