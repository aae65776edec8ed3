"""Sweep harness: sizing rules, trials, determinism, output files."""
import json
import logging
import math

import numpy as np
import pytest

import qsalign.experiments as experiments
from qsalign.experiments import (
    DEFAULT_FIDELITIES,
    SweepConfig,
    SweepRecord,
    calibrated_loader,
    database_size_for,
    fidelity_sweep,
    layer_study,
    random_database,
    random_target,
    run_sweep_trial,
    sub_seed,
    summarize,
    write_sweep_files,
)
from qsalign.gasp import GaConfig
from qsalign.qsa import run_qsa
from qsalign.registers import Database, database_state
from qsalign.simcore import fidelity, run_circuit


def test_default_fidelity_grid():
    assert len(DEFAULT_FIDELITIES) == 20
    assert DEFAULT_FIDELITIES[0] == 0.05
    assert DEFAULT_FIDELITIES[-1] == 1.0
    steps = np.diff(DEFAULT_FIDELITIES)
    assert np.allclose(steps, 0.05)


def test_database_size_rules():
    assert [database_size_for(n, "floor") for n in range(3, 9)] == [2, 4, 6, 10, 18, 32]
    assert [database_size_for(n, "ceil") for n in range(3, 9)] == [3, 4, 7, 11, 19, 32]
    with pytest.raises(ValueError):
        database_size_for(4, "round")


def test_random_database_and_target():
    db = random_database(5, "floor", seed=3)
    assert db.n == 5
    assert db.size == 6
    assert len(set(db.entries)) == db.size
    assert random_database(5, "floor", seed=3).entries == db.entries
    assert random_database(5, "floor", seed=4).entries != db.entries
    t = random_target(5, seed=3)
    assert len(t.bits) == 5
    with pytest.raises(ValueError):
        random_database(2, "floor", seed=0)
    with pytest.raises(ValueError):
        random_target(9, seed=0)


def test_layer_study_rows_and_baseline():
    points = layer_study(4, 6, seed=0, shots=2048)
    assert [pt.p for pt in points] == list(range(7))
    # the planted target is one match among N entries, so the zero-layer
    # baseline sits at exactly 1/N
    n_entries = database_size_for(4, "ceil")
    assert np.isclose(points[0].marked_probability, 1 / n_entries)
    for pt in points:
        assert 0.0 <= pt.accuracy <= 1.0
        assert 0.0 <= pt.marked_probability <= 1.0 + 1e-12


def test_layer_study_matches_closed_form_frozen():
    # seven entries, one match: amplification peaks at one to two layers
    # and collapses at three to four, repeating with period four
    points = layer_study(5, 8, seed=0)
    theta = math.asin(math.sqrt(1 / 7))
    for pt in points:
        predicted = math.sin((2 * pt.p + 1) * theta) ** 2
        assert abs(pt.marked_probability - predicted) < 1e-9
    assert abs(points[2].marked_probability - 0.8711251264354141) < 1e-12
    assert abs(points[4].marked_probability - 0.1155108885309803) < 1e-12
    assert points[1].accuracy > 0.95 and points[2].accuracy > 0.95
    assert points[3].accuracy < 0.6 and points[4].accuracy < 0.6


def test_layer_study_deterministic():
    a = layer_study(3, 4, seed=7)
    b = layer_study(3, 4, seed=7)
    assert a == b
    c = layer_study(3, 4, seed=8)
    assert a != c


def test_sweep_config_validation():
    SweepConfig()
    with pytest.raises(ValueError):
        SweepConfig(qubit_sizes=())
    with pytest.raises(ValueError):
        SweepConfig(qubit_sizes=(2,))
    with pytest.raises(ValueError):
        SweepConfig(fidelities=(0.5, 1.2))
    with pytest.raises(ValueError):
        SweepConfig(trials_per_point=0)
    with pytest.raises(ValueError):
        SweepConfig(db_size_rule="median")
    with pytest.raises(ValueError):
        SweepConfig(layer_policy="deepest")


def test_sweep_config_refuses_an_empty_fidelity_grid():
    # an empty grid would run no trial and write empty files
    with pytest.raises(ValueError, match="fidelities"):
        SweepConfig(fidelities=())
    with pytest.raises(ValueError, match="fidelities"):
        SweepConfig(fidelities=[])


def test_sweep_config_refuses_a_negative_seed():
    SweepConfig(seed=0)
    with pytest.raises(ValueError, match="seed"):
        SweepConfig(seed=-1)


def test_sweep_config_refuses_no_seed():
    # the sweep's files depend only on the seed, so one must be given
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got None"):
        SweepConfig(seed=None)


def test_sweep_config_refuses_repeated_sizes():
    # a repeated size would rerun its trials on the same trial seeds
    SweepConfig(qubit_sizes=(4, 3))
    with pytest.raises(ValueError, match=r"qubit_sizes must be distinct, got \[3, 3\]"):
        SweepConfig(qubit_sizes=(3, 3))
    with pytest.raises(ValueError, match="distinct"):
        SweepConfig(qubit_sizes=[3, 4, 3])


def test_run_sweep_trial_record():
    record = run_sweep_trial(3, 0.9, trial_seed=12345, trial=2, shots=1024)
    assert record.n == 3
    assert record.N == 2
    assert record.trial == 2
    assert record.error is None
    assert abs(record.achieved_fidelity - 0.9) < 1e-3
    assert 0.0 <= record.accuracy <= 1.0
    assert record.distance_found >= record.d_min_classical
    assert record.layers >= 1
    # same derived seed reproduces the record exactly
    assert run_sweep_trial(3, 0.9, trial_seed=12345, trial=2, shots=1024) == record


def test_run_sweep_trial_loader_pinned():
    # read off the closed-form perturbation and, in full mode, the
    # angle-fitted synthesis: the loader wiring (seeds, perturbation and
    # builder) must not move by one ulp
    fast = run_sweep_trial(3, 0.9, 12345, 2, shots=1024, mode="fast")
    assert fast.achieved_fidelity.hex() == "0x1.cccccccccccccp-1"
    assert fast.accuracy == 0.9503095441456025
    full = run_sweep_trial(3, 0.9, 12345, 2, shots=1024, mode="full")
    assert full.achieved_fidelity.hex() == "0x1.ceac79eb11d81p-1"
    assert full.accuracy == 0.9219214427522926
    with pytest.raises(ValueError):
        run_sweep_trial(3, 0.9, 12345, 2, mode="approximate")


def test_calibrated_loader_lands_near_request():
    db = Database(2, ("00", "11"))
    requested = 0.8
    ideal = database_state(db)
    exact = calibrated_loader(db, requested, sub_seed(6, 0x5EED))
    # exact synthesis keeps the perturbation's calibration, exact to rounding
    assert abs(fidelity(run_circuit(exact), ideal) - requested) < 1e-4 + 1e-12
    evolved = calibrated_loader(db, requested, sub_seed(6, 0x5EED), GaConfig(rng_seed=6))
    # synthesis stops at >= 0.99 against the perturbed state, so allow a
    # loose band around the request
    assert abs(fidelity(run_circuit(evolved), ideal) - requested) < 0.05


def test_summarize_groups_and_skips_errors():
    rows = summarize(
        [
            SweepRecord(3, 2, 0.5, 0.49, 0, 0.8, 1, 1, 2, 11, None),
            SweepRecord(3, 2, 0.5, 0.51, 1, 0.6, 1, 1, 2, 12, None),
            SweepRecord(3, 2, 0.5, None, 2, None, None, 1, None, 13, "ValueError: x"),
            SweepRecord(4, 4, 1.0, 1.0, 0, 1.0, 0, 0, 1, 14, None),
        ]
    )
    assert len(rows) == 2
    first = rows[0]
    assert (first.n, first.fidelity, first.trials) == (3, 0.5, 2)
    assert np.isclose(first.mean_accuracy, 0.7)
    assert np.isclose(first.std_accuracy, 0.1)
    assert rows[1].n == 4


def test_summarize_counts_suboptimal_and_degraded_trials():
    def record(trial, optimal, degraded, error=None):
        if error:
            return SweepRecord(3, 2, 0.5, None, trial, None, None, 1, None, trial, error)
        return SweepRecord(3, 2, 0.5, 0.5, trial, 0.7, 1 if optimal else 2, 1, 1, trial, None,
                           degraded, optimal)

    (row,) = summarize(
        [
            record(0, True, False),
            record(1, False, False),
            record(2, False, True),
            record(3, True, False),
            record(4, False, False, error="ValueError: x"),
        ]
    )
    assert (row.trials, row.suboptimal, row.degraded) == (4, 2, 1)


def test_sweep_records_carry_the_magnitude_fidelity(monkeypatch):
    # the overlap of the magnitudes, recomputed here from the loader the
    # trial builds; phases only lower achieved_fidelity
    loaders = []

    def spy(*args, **kwargs):
        loaders.append((args[0], calibrated_loader(*args, **kwargs)))
        return loaders[-1][1]

    monkeypatch.setattr(experiments, "calibrated_loader", spy)
    for fidelity_asked in (0.3, 0.8, 1.0):
        record = run_sweep_trial(4, fidelity_asked, trial_seed=77, trial=0, shots=256)
        db, loader = loaders[-1]
        ideal = np.abs(database_state(db).amplitudes)
        loaded = np.abs(run_circuit(loader).amplitudes)
        assert math.isclose(record.magnitude_fidelity, np.dot(ideal, loaded) ** 2, abs_tol=1e-12)
        assert record.magnitude_fidelity >= record.achieved_fidelity - 1e-12
        assert list(record.__dict__)[-1] == "magnitude_fidelity"
    assert record.magnitude_fidelity == pytest.approx(1.0, abs=1e-12)

    def refusing_loader(*args, **kwargs):
        raise RuntimeError("no loader")

    monkeypatch.setattr(experiments, "calibrated_loader", refusing_loader)
    failed = run_sweep_trial(4, 0.5, trial_seed=77, trial=0, shots=256)
    assert failed.error == "RuntimeError: no loader"
    assert failed.magnitude_fidelity is None


def test_fidelity_sweep_small_grid(tmp_path):
    config = SweepConfig(qubit_sizes=(3,), fidelities=(0.6, 1.0), trials_per_point=2, seed=5)
    result = fidelity_sweep(config, mode="fast")
    write_sweep_files(result, tmp_path / "out")
    assert len(result.records) == 4
    # records come back sorted by (n, fidelity index, trial)
    keys = [(r.n, r.target_fidelity, r.trial) for r in result.records]
    assert keys == [(3, 0.6, 0), (3, 0.6, 1), (3, 1.0, 0), (3, 1.0, 1)]
    assert all(r.error is None for r in result.records)
    assert len(result.summary) == 2

    out = tmp_path / "out"
    assert (out / "records.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "accuracy_n3.dat").exists()
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == "n,N,fidelity,mean_accuracy,std_accuracy,trials,suboptimal,degraded"
    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 4
    parsed = json.loads(lines[0])
    assert parsed["n"] == 3 and parsed["target_fidelity"] == 0.6
    dat = (out / "accuracy_n3.dat").read_text().splitlines()
    assert dat[0] == "# fidelity mean_accuracy std_accuracy"
    assert len(dat) == 3


def test_fidelity_sweep_rerun_is_byte_identical(tmp_path):
    config = SweepConfig(qubit_sizes=(3,), fidelities=(0.8,), trials_per_point=3, seed=1)
    write_sweep_files(fidelity_sweep(config, mode="fast"), tmp_path / "a")
    write_sweep_files(fidelity_sweep(config, mode="fast"), tmp_path / "b")
    for name in ("records.jsonl", "summary.csv", "accuracy_n3.dat"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fidelity_sweep_parallel_matches_serial(tmp_path):
    config = SweepConfig(qubit_sizes=(3,), fidelities=(0.7, 0.9), trials_per_point=3, seed=2)
    serial = fidelity_sweep(config, mode="fast")
    parallel = fidelity_sweep(config, mode="fast", jobs=2)
    assert serial.records == parallel.records


@pytest.mark.parametrize(
    "jobs, cores, workers",
    [(5000, 4, 4), (5000, 64, 6), (3, 64, 3), (5000, None, None), (1, 64, None)],
)
def test_sweep_starts_no_more_workers_than_trials_or_cores(monkeypatch, jobs, cores, workers):
    # a forked pool starts all of its workers on the first task, so the
    # worker count is bounded by the 6 trials and the cores; the fake pool
    # maps in this process and starts nothing
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    config = SweepConfig(qubit_sizes=(3,), fidelities=(0.7, 0.9), trials_per_point=3, seed=2)
    result = fidelity_sweep(config, mode="fast", jobs=jobs)
    assert started == ([] if workers is None else [workers])
    assert result.records == fidelity_sweep(config, mode="fast").records


def test_sweep_records_carry_the_degraded_flag(monkeypatch, tmp_path):
    # one shot per probe on a two-entry database often samples no entry at
    # any probed distance, so run_qsa falls back; the record and its
    # records.jsonl line must carry the flag run_qsa returned
    results = []

    def spy(*args, **kwargs):
        results.append(run_qsa(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiments, "run_qsa", spy)
    config = SweepConfig(qubit_sizes=(3,), fidelities=(0.3,), trials_per_point=12, shots=1, seed=9)
    result = fidelity_sweep(config)
    flags = [r.degraded for r in results]
    assert [r.degraded for r in result.records] == flags
    assert set(flags) == {False, True}
    write_sweep_files(result, tmp_path)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert [json.loads(line)["degraded"] for line in lines] == flags


def test_sweep_records_carry_the_optimal_flag(tmp_path):
    # one shot per probe at n=4 often misses every entry at d_min and
    # accepts one at a larger distance; records.jsonl must say which
    config = SweepConfig(qubit_sizes=(4,), fidelities=(0.3,), trials_per_point=8, shots=1, seed=1)
    result = fidelity_sweep(config)
    flags = [r.distance_found == r.d_min_classical for r in result.records]
    assert [r.optimal for r in result.records] == flags
    assert set(flags) == {False, True}
    write_sweep_files(result, tmp_path)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert [list(json.loads(line))[-2] for line in lines] == ["optimal"] * len(lines)
    assert [json.loads(line)["optimal"] for line in lines] == flags


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_trial_comes_back_as_an_error_record(monkeypatch, caplog, jobs):
    # a trial that raises past its instance draw must not stop the sweep;
    # its record keeps the instance facts and carries the error instead of
    # results, and the summary leaves it out (the pool forks, so workers
    # see the patched loader too)
    config = SweepConfig(qubit_sizes=(3,), fidelities=(0.5, 1.0), trials_per_point=2, seed=4)
    healthy = fidelity_sweep(config)
    real_loader = experiments.calibrated_loader

    def refusing_loader(db, target_fidelity, *args):
        if target_fidelity == 0.5:
            raise RuntimeError("no loader at 0.5")
        return real_loader(db, target_fidelity, *args)

    monkeypatch.setattr(experiments, "calibrated_loader", refusing_loader)
    with caplog.at_level(logging.WARNING, logger="qsalign.experiments"):
        result = fidelity_sweep(config, jobs=jobs)
    assert result.records[2:] == healthy.records[2:]
    for failed, ok in zip(result.records[:2], healthy.records[:2]):
        assert (failed.n, failed.N, failed.target_fidelity, failed.trial) == (
            ok.n, ok.N, ok.target_fidelity, ok.trial
        )
        assert (failed.d_min_classical, failed.seed) == (ok.d_min_classical, ok.seed)
        assert failed.error == "RuntimeError: no loader at 0.5"
        assert (failed.achieved_fidelity, failed.accuracy) == (None, None)
        assert (failed.distance_found, failed.layers, failed.degraded) == (None, None, None)
        assert failed.optimal is None
    assert result.summary == healthy.summary[1:]
    assert caplog.text.count("RuntimeError: no loader at 0.5") == 2


def test_sweep_calls_the_module_trial_function_once_per_trial(monkeypatch):
    # the traced benchmark times each trial by wrapping this module
    # attribute, so a serial sweep must look it up and call it per trial
    calls = []
    real_trial = experiments.run_sweep_trial

    def counting_trial(*args, **kwargs):
        calls.append(args[:4])
        return real_trial(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_sweep_trial", counting_trial)
    config = SweepConfig(qubit_sizes=(3,), fidelities=(0.6, 1.0), trials_per_point=2, seed=5)
    result = fidelity_sweep(config, jobs=1)
    assert calls == [(r.n, r.target_fidelity, r.seed, r.trial) for r in result.records]


def test_fidelity_sweep_progress_and_validation():
    seen = []
    config = SweepConfig(qubit_sizes=(3,), fidelities=(1.0,), trials_per_point=2, seed=0)
    fidelity_sweep(config, progress=lambda done, total, rec: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]
    with pytest.raises(ValueError):
        fidelity_sweep(config, mode="approximate")
    with pytest.raises(ValueError):
        fidelity_sweep(config, jobs=0)


def test_write_sweep_files_returns_paths(tmp_path):
    config = SweepConfig(qubit_sizes=(3,), fidelities=(1.0,), trials_per_point=1, seed=0)
    result = fidelity_sweep(config, mode="fast")
    written = write_sweep_files(result, tmp_path)
    assert [p.name for p in written] == ["records.jsonl", "summary.csv", "accuracy_n3.dat"]
