import json
import subprocess
import sys

import pytest

import tqcoh.scan as scan_module
from tqcoh.cli import EXIT_INVARIANT, EXIT_IO, EXIT_OK, EXIT_USAGE, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- evolve


def test_evolve_stationary_state(capsys):
    code, out, _ = run_cli(
        ["evolve", "--state", "phi-", "--ej", "0.5", "--em", "1.5", "--t", "7.3"],
        capsys,
    )
    assert code == EXIT_OK
    assert "C(numeric) = 1.000000000000" in out
    assert "C(closed)  = 1.000000000000" in out


def test_evolve_default_time(capsys):
    code, out, _ = run_cli(["evolve", "--state", "phi+"], capsys)
    assert code == EXIT_OK
    assert "C(closed)  = 1.000000000000" in out


def test_evolve_near_peak(capsys):
    code, out, _ = run_cli(["evolve", "--state", "phi+", "--t", "1.7347"], capsys)
    assert code == EXIT_OK
    numeric = float(out.split("C(numeric) = ")[1].split()[0])
    assert numeric == pytest.approx(3.0, abs=1e-4)


def test_evolve_requires_state(capsys):
    code, _, err = run_cli(["evolve", "--t", "1.0"], capsys)
    assert code == EXIT_USAGE
    assert "--state" in err


def test_evolve_rejects_bad_hbar(capsys):
    code, _, err = run_cli(["evolve", "--state", "phi+", "--hbar", "0"], capsys)
    assert code == EXIT_USAGE
    assert "hbar" in err


# ----------------------------------------------------------------- series


def test_series_csv_golden_first_row(tmp_path, capsys):
    out_file = tmp_path / "series.csv"
    code, _, _ = run_cli(["series", "--state", "phi+", "--out", str(out_file)], capsys)
    assert code == EXIT_OK
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,c_closed_form,c_numeric,abs_gap"
    assert lines[1] == "0,1.000000000000,1.000000000000,0.000000000000"
    assert len(lines) == 1002


def test_series_csv_stable_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["series", "--state", "phi+", "--out", str(a)], capsys)
    run_cli(["series", "--state", "phi+", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_series_to_stdout(capsys):
    code, out, _ = run_cli(
        ["series", "--state", "phi-", "--steps", "3", "--out", "-"], capsys
    )
    assert code == EXIT_OK
    assert out.splitlines()[1].startswith("0,1.000000000000,1.000000000000")


def test_series_json_round_trip(tmp_path, capsys):
    out_file = tmp_path / "series.json"
    code, _, _ = run_cli(
        [
            "series",
            "--state",
            "phi+",
            "--steps",
            "5",
            "--format",
            "json",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["meta"]["state"] == "phi+"
    assert doc["meta"]["params"] == {"e_j": 0.5, "e_m": 1.5, "hbar": 1.0}
    assert doc["data"]["t"][0] == 0.0
    assert doc["data"]["c_closed_form"][0] == 1.0
    assert len(doc["data"]["abs_gap"]) == 5


def test_series_rejects_single_step(capsys):
    code, _, _ = run_cli(["series", "--state", "phi+", "--steps", "1"], capsys)
    assert code == EXIT_USAGE


def test_series_unwritable_destination(capsys):
    code, _, err = run_cli(
        ["series", "--state", "phi+", "--out", "/nonexistent/dir/out.csv"], capsys
    )
    assert code == EXIT_IO
    assert "i/o error" in err


# ------------------------------------------------------------------- grid


def test_grid_vary_coupling_csv(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        [
            "grid",
            "--state",
            "phi+",
            "--vary",
            "em",
            "--min",
            "0",
            "--max",
            "1.5",
            "--vsteps",
            "11",
            "--steps",
            "11",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == EXIT_OK
    lines = out_file.read_text().splitlines()
    assert lines[0] == "e_m,t,value"
    assert len(lines) == 1 + 11 * 11
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert min(values) >= 1.0 - 1e-9 and max(values) <= 3.0 + 1e-9


def test_grid_json(capsys):
    code, out, _ = run_cli(
        [
            "grid",
            "--state",
            "phi+",
            "--vary",
            "ej",
            "--min",
            "0",
            "--max",
            "0.5",
            "--vsteps",
            "3",
            "--steps",
            "3",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["meta"]["vary"] == "e_j"
    assert len(doc["data"]["value"]) == 9
    assert doc["data"]["e_j"][0] == 0.0


def test_grid_rejects_degenerate_range(capsys):
    code, _, _ = run_cli(
        ["grid", "--state", "phi+", "--vary", "ej", "--min", "1", "--max", "1"],
        capsys,
    )
    assert code == EXIT_USAGE


# ----------------------------------------------------------------- verify


def test_verify_small_sweep_passes(capsys):
    code, out, _ = run_cli(["verify", "--samples", "50", "--seed", "42"], capsys)
    assert code == EXIT_OK
    assert "result: PASS" in out
    assert "propagator" in out and "density" in out and "coherence" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        ["verify", "--samples", "10", "--seed", "1", "--format", "json"], capsys
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True and doc["draws"] == 10


def test_verify_rejects_zero_samples(capsys):
    code, _, _ = run_cli(["verify", "--samples", "0"], capsys)
    assert code == EXIT_USAGE


def test_verify_fails_with_corrupted_build(capsys, monkeypatch):
    true_analytic = scan_module.analytic_propagator
    monkeypatch.setattr(
        scan_module,
        "analytic_propagator",
        lambda p, t: true_analytic(p, t * 1.001),
    )
    code, out, _ = run_cli(["verify", "--samples", "10", "--seed", "3"], capsys)
    assert code == EXIT_INVARIANT
    assert "FAIL" in out and "propagator" in out


# --------------------------------------------------------------- optimize


def test_optimize_maximize(capsys):
    code, out, _ = run_cli(
        ["optimize", "--state", "phi+", "--t-min", "0", "--t-max", "10"], capsys
    )
    assert code == EXIT_OK
    t = float(out.split("t = ")[1].splitlines()[0])
    c = float(out.split("coherence = ")[1].splitlines()[0])
    assert t == pytest.approx(1.7346, abs=1e-3)
    assert c == pytest.approx(3.0, abs=1e-6)


def test_optimize_stationary(capsys):
    code, out, _ = run_cli(
        ["optimize", "--state", "psi-", "--objective", "maximize"], capsys
    )
    assert code == EXIT_OK
    assert "coherence = 1.000000000000" in out
    assert "eigenstate" in out


def test_optimize_stabilize_tunnelling_off(capsys):
    code, out, _ = run_cli(
        ["optimize", "--state", "phi+", "--ej", "0", "--objective", "stabilize"],
        capsys,
    )
    assert code == EXIT_OK
    assert "tunnelling off: C constant 1" in out


def test_optimize_rejects_empty_window(capsys):
    code, _, _ = run_cli(
        ["optimize", "--state", "phi+", "--t-min", "5", "--t-max", "5"], capsys
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "window",
    [("1e8", "100000010"), ("0", "1e6")],
    ids=["far-from-zero", "many-periods"],
)
def test_optimize_large_windows_finish(window):
    # Far from t = 0 the float spacing exceeds 1e-9, and a wide window
    # holds ~1e5 periodic copies of the maximiser; neither may slow it down.
    proc = subprocess.run(
        [sys.executable, "-m", "tqcoh", "optimize", "--state", "phi+",
         "--t-min", window[0], "--t-max", window[1]],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == EXIT_OK
    assert "coherence = 3.000000000000" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--state", "phi+", "--t", "inf"],
        ["evolve", "--state", "phi+", "--ej", "nan"],
        ["series", "--state", "phi+", "--t-max", "inf"],
        ["grid", "--state", "phi+", "--vary", "ej", "--min", "0", "--max", "inf"],
        ["optimize", "--state", "phi+", "--t-max", "inf"],
        ["optimize", "--state", "phi+", "--t-min=-inf"],
    ],
)
def test_non_finite_flags_are_usage_errors(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert "is not a finite number" in err


# ------------------------------------------------------------- end to end


def test_console_entry_point_subprocess(tmp_path):
    out_file = tmp_path / "series.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tqcoh",
            "series",
            "--state",
            "phi+",
            "--steps",
            "11",
            "--out",
            str(out_file),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out_file.read_text().splitlines()[1].startswith("0,1.000000000000")


def test_subprocess_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "tqcoh", "series"], capture_output=True, text=True
    )
    assert proc.returncode == 1


def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
