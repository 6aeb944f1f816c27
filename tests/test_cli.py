"""CLI surface tests: subcommands, exit codes, output formats."""

import json

import pytest

from quditsim import bench
from quditsim.bench import CSV_HEADER, parse_csv_row
from quditsim.circuits import emit, t_doped_circuit
from quditsim.cli import main
from quditsim.disentanglers import generate_catalog, load_catalog, save_catalog


@pytest.fixture(scope="module")
def circuit_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("circ") / "tdoped.txt"
    path.write_text(emit(t_doped_circuit(4, 2, layers=3, rng_seed=5)))
    return path


@pytest.fixture(scope="module")
def catalog_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cat") / "cat2.txt"
    save_catalog(generate_catalog(2), path)
    return path


def test_disentanglers_prints_counts(tmp_path, capsys):
    out = tmp_path / "cat.txt"
    assert main(["disentanglers", "--d", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "d=2 entangling_classes=20 group_order=720"
    assert load_catalog(out).n_entries == 20


def test_disentanglers_large_d_needs_opt_in(tmp_path, capsys):
    out = tmp_path / "cat5.txt"
    assert main(["disentanglers", "--d", "5", "--out", str(out)]) == 2
    assert "guard" in capsys.readouterr().err


def test_run_with_verify_and_report(circuit_file, catalog_file, tmp_path, capsys):
    report = tmp_path / "rows.csv"
    code = main([
        "run", "--backend", "gcamps", "--circuit", str(circuit_file),
        "--catalog", str(catalog_file), "--verify", "--report", str(report),
    ])
    assert code == 0
    assert "verify_fidelity=" in capsys.readouterr().out
    lines = report.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [parse_csv_row(ln) for ln in lines[1:]]
    assert len(rows) == 3  # one per T layer
    assert all(r.backend == "gcamps" for r in rows)


def test_run_prints_rows_without_report(circuit_file, capsys):
    assert main(["run", "--backend", "mps", "--circuit", str(circuit_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    assert len(out) == 4


def test_run_statevector_backend(circuit_file, capsys):
    code = main([
        "run", "--backend", "statevector", "--circuit", str(circuit_file),
        "--verify",
    ])
    assert code == 0
    assert "verify_fidelity=1.0" in capsys.readouterr().out


def test_run_missing_file_exits_2(capsys):
    assert main(["run", "--circuit", "/nonexistent/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# qsim v1 d=2 n=2\nWIBBLE 0\n")
    assert main(["run", "--circuit", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_non_finite_param_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.txt"
    bad.write_text("# qsim v1 d=3 n=2\nH 0\nSUM 0 1\nU1 1 nan 0.5 0.25\n")
    code = main(["run", "--backend", "mps", "--circuit", str(bad), "--verify"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: line 4: U1 params must be finite" in captured.err
    assert "verify_fidelity" not in captured.out


def test_run_catalog_dimension_mismatch_exits_2(catalog_file, tmp_path, capsys):
    circ3 = tmp_path / "c3.txt"
    circ3.write_text(emit(t_doped_circuit(3, 3, layers=1, rng_seed=1)))
    code = main([
        "run", "--backend", "gcamps", "--circuit", str(circ3),
        "--catalog", str(catalog_file),
    ])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["mps", "statevector"])
def test_run_catalog_for_another_backend_exits_2(circuit_file, catalog_file,
                                                 backend, capsys):
    """A catalog given to a backend that never reads it is an input error,
    whether or not the file exists, and nothing runs."""
    for path in ("/nonexistent/cat.txt", str(catalog_file)):
        code = main(["run", "--backend", backend, "--circuit",
                     str(circuit_file), "--catalog", path])
        assert code == 2
        out, err = capsys.readouterr()
        assert "--catalog applies to the gcamps backend only" in err
        assert out == ""


def test_run_header_only_catalog_exits_2(circuit_file, tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("# qsim-catalog v1\n")
    code = main([
        "run", "--backend", "gcamps", "--circuit", str(circuit_file),
        "--catalog", str(cat),
    ])
    assert code == 2
    assert "malformed catalog header" in capsys.readouterr().err


def test_run_bad_catalog_token_names_its_line(circuit_file, catalog_file,
                                              tmp_path, capsys):
    lines = catalog_file.read_text().splitlines()
    lines[2] += " Q0"
    cat = tmp_path / "cat.txt"
    cat.write_text("\n".join(lines) + "\n")
    code = main([
        "run", "--backend", "gcamps", "--circuit", str(circuit_file),
        "--catalog", str(cat),
    ])
    assert code == 2
    assert "error: line 3: bad word token 'Q0'" in capsys.readouterr().err


def test_bench_tdoped_negative_block_len_exits_2(tmp_path, capsys):
    code = main(["bench-tdoped", "--d", "2", "--sites", "3", "--layers", "1",
                 "--shots", "1", "--block-len", "-1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error: block_len must be >= 1, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--shots", "-2"),
                                           ("--sites", "0")])
def test_bench_tdoped_count_below_one_exits_2(option, value, tmp_path,
                                              capsys):
    """A count below one names its own option and writes no file."""
    args = {"--sites": "2", "--shots": "1"} | {option: value}
    out = tmp_path / "x.csv"
    code = main(["bench-tdoped", "--d", "3", "--layers", "1",
                 "--out", str(out), *(a for kv in args.items() for a in kv)])
    assert code == 2
    want = f"error: {option[2:]} must be >= 1, got {value}"
    assert want in capsys.readouterr().err
    assert not out.exists()


def test_run_statevector_guard_exits_2(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text(emit(t_doped_circuit(12, 3, layers=1, rng_seed=0,
                                        block_len=4)))
    code = main(["run", "--backend", "statevector", "--circuit", str(big)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_truncated_mps_fails_verification(tmp_path, capsys):
    # chi capped at 1 cannot represent an entangling circuit exactly, so
    # verification must fail with exit code 1
    circ = tmp_path / "c.txt"
    circ.write_text(emit(t_doped_circuit(4, 2, layers=3, rng_seed=6)))
    code = main([
        "run", "--backend", "mps", "--circuit", str(circ),
        "--chi-max", "1", "--verify",
    ])
    assert code == 1
    assert "fidelity" in capsys.readouterr().err


def test_bench_tdoped_subcommand(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    mirror = tmp_path / "bench.json"
    code = main([
        "bench-tdoped", "--d", "2", "--sites", "4", "--layers", "2",
        "--shots", "2", "--seed", "3", "--backends", "gcamps,mps",
        "--out", str(out), "--json", str(mirror),
    ])
    assert code == 0
    assert "wrote 8 records" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 9
    payload = json.loads(mirror.read_text())
    assert len(payload) == 8
    assert {row["backend"] for row in payload} == {"gcamps", "mps"}


def test_bench_tdoped_bad_backend_exits_2(tmp_path, capsys):
    code = main([
        "bench-tdoped", "--d", "2", "--sites", "3", "--layers", "1",
        "--shots", "1", "--backends", "nope", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "backend" in capsys.readouterr().err


def test_runtime_error_in_a_subcommand_exits_2(circuit_file, tmp_path,
                                               monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("bond grew past its ceiling")

    monkeypatch.setattr(bench, "run_on_backend", fail)
    for argv in (
        ["run", "--backend", "mps", "--circuit", str(circuit_file)],
        ["bench-tdoped", "--d", "2", "--sites", "3", "--layers", "1",
         "--shots", "1", "--out", str(tmp_path / "x.csv")],
    ):
        assert main(argv) == 2
        assert "error: bond grew past its ceiling" in capsys.readouterr().err
