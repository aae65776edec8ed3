"""Command-line interface: subcommands, exit codes, stdout contracts."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsalign.cli as cli
from qsalign.checks import CheckResult
from qsalign.cli import main
from qsalign.registers import Database, database_state
from qsalign.simcore import fidelity, parse_circuit, run_circuit, serialize_circuit


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def db3(tmp_path):
    return _write(tmp_path / "db.txt", "101\n010\n")


def test_run_exact_match(db3, capsys, tmp_path):
    out = tmp_path / "record.json"
    rc = main(["run", "--db", db3, "--target", "101", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    record = json.loads(captured.out)
    assert record["match"] == "101"
    assert record["distance"] == 0
    assert record["d_min_classical"] == 0
    assert record["degraded"] is False
    assert out.read_text() == captured.out
    # human summary goes to stderr, not stdout
    assert "match 101 at distance 0" in captured.err


def test_run_best_alignment(tmp_path, capsys):
    db = _write(tmp_path / "db.txt", "000\n011\n")
    rc = main(["run", "--db", db, "--target", "111"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert record["match"] == "011"
    assert record["distance"] == 1


def test_run_seeded_determinism(db3, capsys):
    argv = ["run", "--db", db3, "--target", "100", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_run_comments_and_blank_lines_skipped(tmp_path, capsys):
    db = _write(tmp_path / "db.txt", "# header\n101\n\n010\n")
    rc = main(["run", "--db", db, "--target", "101"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["N"] == 2


def test_run_alphabet_encoding(tmp_path, capsys):
    alphabet = _write(tmp_path / "alphabet.txt", "A\nC\nG\nT\n")
    db = _write(tmp_path / "db.txt", "AC\nGT\nTA\n")
    rc = main(
        ["run", "--db", db, "--target", "AC", "--alphabet", alphabet,
         "--layer-policy", "best"]
    )
    record = json.loads(capsys.readouterr().out)
    assert rc == 0
    # A=00 C=01, so the match comes back in encoded form
    assert record["match"] == "0001"
    assert record["distance"] == 0
    assert record["n"] == 4


def test_alphabet_file_skips_comment_lines(tmp_path, capsys):
    # alphabet files follow the database format: blank and '#' lines are
    # skipped, indented or not, so a header adds no letter and widens no code
    db = _write(tmp_path / "dna.txt", "GAT\nGCA\nTAC\nCTG\n")
    plain = _write(tmp_path / "plain.txt", "A\nC\nG\nT\n")
    commented = _write(tmp_path / "commented.txt", "# nucleotides\nA\nC\n\nG\nT\n")
    indented = _write(tmp_path / "indented.txt", "  # nucleotides\nA\nC\n\t# purines above\nG\nT\n")
    for path in (commented, indented):
        assert cli._load_alphabet(path).letters == ("A", "C", "G", "T")
    argv = ["run", "--db", db, "--target", "GAA", "--alphabet"]
    assert main(argv + [plain]) == 0
    expected = capsys.readouterr().out
    for path in (commented, indented):
        assert main(argv + [path]) == 0
        assert capsys.readouterr().out == expected


def test_run_usage_errors(db3, tmp_path, capsys):
    # width mismatch
    assert main(["run", "--db", db3, "--target", "10"]) == 1
    # missing database file
    assert main(["run", "--db", str(tmp_path / "nope.txt"), "--target", "101"]) == 1
    # file with no entries
    empty = _write(tmp_path / "empty.txt", "# only a comment\n")
    assert main(["run", "--db", empty, "--target", "101"]) == 1
    # non-bit characters without an alphabet
    bad = _write(tmp_path / "bad.txt", "10x\n")
    assert main(["run", "--db", bad, "--target", "101"]) == 1
    # fidelity outside (0, 1]
    assert main(["run", "--db", db3, "--target", "101", "--fidelity", "0.0"]) == 1
    assert main(["run", "--db", db3, "--target", "101", "--fidelity", "1.5"]) == 1
    capsys.readouterr()


def test_bad_flags_exit_1(db3):
    # argparse failures are remapped from its default exit 2 to usage exit 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "--db", db3, "--target", "101", "--no-such-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "--db", db3])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_run_strict_degraded_exits_2(tmp_path, capsys):
    # c=2 at the minimum distance makes the paper layer count overshoot
    # badly here, so the single shot of each probe misses its entries at
    # that distance and the run degrades
    db = _write(tmp_path / "db.txt", "000\n011\n101\n")
    argv = ["run", "--db", db, "--target", "111", "--seed", "0", "--shots", "1",
            "--layer-policy", "paper"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["degraded"] is True
    assert record["distance"] == 1
    assert main(argv + ["--strict"]) == 2
    capsys.readouterr()


def test_run_strict_exits_2_on_a_match_above_the_minimum(tmp_path, capsys):
    # three of the four entries sit at the minimum distance 1, where the
    # paper's single layer gives them probability exactly 0, so the run
    # accepts the entry at distance 2 and must flag it
    db = _write(tmp_path / "db.txt", "1010\n0100\n1000\n1110\n")
    argv = ["run", "--db", db, "--target", "1100", "--layer-policy", "paper"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["d_min_classical"], record["distance"], record["degraded"]) == (1, 2, True)
    assert main(argv + ["--strict"]) == 2
    capsys.readouterr()


def test_run_unwritable_out_exits_2(db3, tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
    rc = main(["run", "--db", db3, "--target", "101", "--out", str(missing_dir)])
    assert rc == 2
    capsys.readouterr()


def test_run_fidelity_loader(db3, capsys):
    argv = ["run", "--db", db3, "--target", "101", "--fidelity", "0.9", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    record = json.loads(first)
    assert record["match"] in {"101", "010"}
    assert 0.0 <= record["accuracy"] <= 1.0
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_run_full_fidelity_loader_pinned(db3, monkeypatch, capsys):
    # digest read off the closed-form perturbation and the synthesis, here
    # the fitted skeleton: --full must keep its seeds and its circuit
    loaders = []
    run_qsa = cli.run_qsa

    def spy(loader, *args):
        loaders.append(loader)
        return run_qsa(loader, *args)

    monkeypatch.setattr(cli, "run_qsa", spy)
    argv = ["run", "--db", db3, "--target", "100", "--fidelity", "0.8", "--full", "--seed", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    text = serialize_circuit(loaders[0])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "99ca39ef963d702f9d9c9a408ca358e0483b309b432120ca99b923d61b795da6"
    )


def test_run_full_exact_fidelity_evolves_the_gasp_loader(db3, monkeypatch, tmp_path, capsys):
    # at the default fidelity 1.0, --full evolves the same circuit that the
    # gasp subcommand writes for the same seed, instead of the exact loader
    loaders = []
    run_qsa = cli.run_qsa

    def spy(loader, *args):
        loaders.append(loader)
        return run_qsa(loader, *args)

    monkeypatch.setattr(cli, "run_qsa", spy)
    assert main(["run", "--db", db3, "--target", "100", "--full", "--seed", "3"]) == 0
    out = tmp_path / "loader.txt"
    assert main(["gasp", "--db", db3, "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert serialize_circuit(loaders[0]) == out.read_text()


class _Allocated(Exception):
    pass


def test_oversized_entries_refused_before_allocation(tmp_path, monkeypatch, capsys, caplog):
    def allocate(*args, **kwargs):
        raise _Allocated("allocation attempted")

    for name in ("calibrated_loader", "run_qsa", "gasp_prepare"):
        monkeypatch.setattr(cli, name, allocate)
    alphabet = _write(tmp_path / "alphabet.txt", "A\nT\nG\nC\n")
    dna = _write(tmp_path / "dna.txt", "GATTACA\nGATTACC\n")
    # 7 symbols of 2 bits: a 32-qubit search register, 64 GiB per statevector
    argv = ["run", "--db", dna, "--target", "GATTACA", "--alphabet", alphabet]
    assert main(argv + ["--fidelity", "0.9"]) == 1
    err = capsys.readouterr().err
    assert "14 bits wide, over the limit of 8" in err
    assert "32 qubits (65536 MiB per statevector)" in err
    assert main(["gasp", "--db", dna, "--alphabet", alphabet]) == 1
    assert "14 bits wide, over the limit of 8" in capsys.readouterr().err
    nine = _write(tmp_path / "nine.txt", "000000000\n111111111\n")
    assert main(["run", "--db", nine, "--target", "000000001"]) == 1
    assert main(["gasp", "--db", nine]) == 1
    assert "9 bits wide" in capsys.readouterr().err
    # 8-bit entries pass the check and go on to build the loader
    eight = _write(tmp_path / "eight.txt", "00000000\n11111111\n")
    assert main(["run", "--db", eight, "--target", "00000001"]) == 2
    assert main(["gasp", "--db", eight]) == 2
    capsys.readouterr()
    assert [r.getMessage() for r in caplog.records] == ["allocation attempted"] * 2


@pytest.mark.parametrize("command", ["run", "sweep", "layers", "gasp"])
def test_negative_seed_refused_before_anything_is_built(command, db3, monkeypatch, capsys):
    def build(*args, **kwargs):
        raise _Allocated("built something")

    for name in ("_load_database", "calibrated_loader", "run_qsa", "fidelity_sweep",
                 "layer_study", "gasp_prepare"):
        monkeypatch.setattr(cli, name, build)
    argv = {
        "run": ["run", "--db", db3, "--target", "101"],
        "sweep": ["sweep", "--sizes", "3"],
        "layers": ["layers", "--n", "3"],
        "gasp": ["gasp", "--db", db3],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 1
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err


def test_sweep_repeated_sizes_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "fidelity_sweep", lambda *a, **k: pytest.fail("sweep ran"))
    assert main(["sweep", "--sizes", "3,3"]) == 1
    assert "qubit_sizes must be distinct, got [3, 3]" in capsys.readouterr().err


def test_layers_zero_shots_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "layer_study", lambda *a, **k: pytest.fail("study ran"))
    assert main(["layers", "--n", "3", "--shots", "0"]) == 1
    assert "--shots must be >= 1, got 0" in capsys.readouterr().err


def test_gasp_negative_generations_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "gasp_prepare", lambda *a, **k: pytest.fail("synthesis ran"))
    db = _write(tmp_path / "db.txt", "00\n11\n")
    assert main(["gasp", "--db", db, "--generations", "-1"]) == 1
    assert "max_generations must be >= 0" in capsys.readouterr().err


def test_layers_json_lines(tmp_path, capsys):
    out = tmp_path / "layers.jsonl"
    rc = main(["layers", "--n", "3", "--p-max", "2", "--shots", "256", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["p"] for r in rows] == [0, 1, 2]
    for row in rows:
        assert set(row) == {"p", "accuracy", "marked_probability"}
        assert 0.0 <= row["accuracy"] <= 1.0
        assert 0.0 <= row["marked_probability"] <= 1.0
    assert out.read_text() == captured.out


def test_layers_usage_errors(capsys):
    assert main(["layers", "--n", "2"]) == 1
    assert main(["layers", "--n", "3", "--p-max", "-1"]) == 1
    capsys.readouterr()


def test_sweep_files_and_rerun_identical(tmp_path, capsys):
    base = ["sweep", "--sizes", "3", "--fidelities", "0.9,1.0", "--trials", "2",
            "--shots", "128", "--seed", "5"]
    rc = main(base + ["--out", str(tmp_path / "a")])
    captured = capsys.readouterr()
    assert rc == 0
    summary = json.loads(captured.out)
    assert summary["records"] == 4
    assert summary["errors"] == 0
    assert sorted(summary["files"]) == ["accuracy_n3.dat", "records.jsonl", "summary.csv"]
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in summary["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_unwritable_out_exits_2_before_any_trial(tmp_path, monkeypatch, capsys, caplog):
    monkeypatch.setattr(cli, "fidelity_sweep", lambda *a, **k: pytest.fail("sweep ran"))
    taken = _write(tmp_path / "taken", "a file, not a directory\n")
    assert main(["sweep", "--sizes", "3", "--trials", "1", "--out", taken]) == 2
    assert "File exists" in caplog.text
    capsys.readouterr()


def test_sweep_usage_errors(capsys):
    assert main(["sweep", "--sizes", "3,x"]) == 1
    assert main(["sweep", "--fidelities", "0.9,high"]) == 1
    assert main(["sweep", "--jobs", "0"]) == 1
    capsys.readouterr()


def test_gasp_circuit_roundtrip(tmp_path, capsys):
    db = _write(tmp_path / "db.txt", "00\n11\n")
    out = tmp_path / "circuit.txt"
    rc = main(["gasp", "--db", db, "--seed", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["converged"] is True
    assert report["fidelity"] >= 0.99
    circuit = parse_circuit(out.read_text())
    assert len(circuit.gates) == report["gates"]
    target = database_state(Database.from_bitstrings(("00", "11")))
    achieved = fidelity(run_circuit(circuit), target)
    assert np.isclose(achieved, report["fidelity"])


def test_gasp_rerun_writes_an_identical_circuit_file(tmp_path, capsys):
    db = _write(tmp_path / "db.txt", "0011\n0101\n1110\n1000\n")
    for name in ("a.txt", "b.txt"):
        args = ["gasp", "--db", db, "--generations", "5", "--seed", "1", "--out"]
        assert main(args + [str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_gasp_usage_error(tmp_path, capsys):
    db = _write(tmp_path / "db.txt", "00\n11\n")
    assert main(["gasp", "--db", db, "--population", "0"]) == 1
    capsys.readouterr()


def test_gasp_refuses_a_population_over_the_amplitude_budget(tmp_path, monkeypatch, capsys):
    # the scorer holds P rows of 2^n amplitudes; at n=8 the 2^20 budget of
    # the widest search register admits 4096 genomes, and 100000 would ask
    # for about 0.8 GB, so it is refused before any allocation
    populations = []

    def stub(target, config):
        populations.append(config.population_size)
        raise RuntimeError("stop after the checks")

    monkeypatch.setattr(cli, "gasp_prepare", stub)
    db = _write(tmp_path / "db.txt", "00000000\n11111111\n")
    for population in (100000, 4097):
        assert main(["gasp", "--db", db, "--population", str(population)]) == 1
        assert f"--population {population} at 8 qubits needs" in capsys.readouterr().err
    assert main(["gasp", "--db", db, "--population", "4096"]) == 2
    assert populations == [4096]
    # a genome's genes take the same room at any width, so every width is
    # held to the same 4096 genomes: at n=1, 4097 is refused too
    narrow = _write(tmp_path / "narrow.txt", "0\n1\n")
    assert main(["gasp", "--db", narrow, "--population", "4097"]) == 1
    assert "--population 4097 at 1 qubits needs" in capsys.readouterr().err
    assert populations == [4096]


def test_verify_quick_passes(capsys):
    rc = main(["verify"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines
    assert all(line.startswith("PASS") for line in lines)


def test_verify_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_checks", lambda level: [CheckResult("popcount", False, "injected fault")]
    )
    rc = main(["verify"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out.startswith("FAIL popcount")


def test_the_command_line_imports_no_test_extra():
    # pyproject.toml declares numpy alone; scipy, hypothesis and pytest
    # are test extras, so importing the command line, which imports every
    # module of the package, must load none of them
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import json, sys, qsalign.cli; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    top = {name.partition(".")[0] for name in json.loads(done.stdout)}
    assert "numpy" in top and "qsalign" in top
    assert not top & {"scipy", "hypothesis", "pytest", "_pytest"}
