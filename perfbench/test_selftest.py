"""Self-test of the benchmark at tiny sizes: python -m pytest perfbench"""

import contextlib
import io
import json

import numpy as np
import pytest

import checks
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"verify": {"samples": 3}, "series": {"steps": 50}, "grid": {"steps": 6, "vsteps": 5}}


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    """Run the benchmark at tiny sizes; return the parsed last output line."""
    monkeypatch.setattr(run, "SIZES", TINY)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "MIN_OPS", 3)
    monkeypatch.setattr(run, "MIN_TRACED_OPS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)

    def go(workload, trace):
        capsys.readouterr()
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.05",
                         "--trace", str(trace)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        return json.loads(lines[-1]), lines

    return go


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(bench, workload, trace, kind):
    result, lines = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines}
    assert "failed_ops_frac" in printed
    if trace:
        assert {f"{n}.self_s" for n in spans.SPAN_NAMES} <= printed
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    assert record["seed"] == 5 and record["sizes"] == TINY[workload]


@pytest.mark.parametrize(
    "workload,span,calls",
    [
        ("verify", "linalg.hermitian_eigensystem", TINY["verify"]["samples"]),
        ("verify", "evolution.certify", 18 * TINY["verify"]["samples"]),
        ("series", "linalg.hermitian_eigensystem", 1),
        ("series", "scan.time_series", 1),
        ("grid", "linalg.hermitian_eigensystem", 0),
        ("grid", "evolution.numeric_propagator", 0),
        ("grid", "coherence.closed_form_coherence", TINY["grid"]["vsteps"]),
    ],
)
def test_call_counts_match_the_layer_table(bench, workload, span, calls):
    result, lines = bench(workload, 1)
    assert result["metrics"][f"{span}.calls"]["value"] == calls
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    assert record["calls_repeat_exactly"]


def _op_output(workload, tmp_path, monkeypatch):
    """One real operation's spec, exit code and output for the checkers."""
    monkeypatch.setattr(run, "SIZES", TINY)
    tqcoh = run.load_tqcoh()
    out = tmp_path / "op.csv"
    argv, spec = run.draw_op(workload, np.random.default_rng(7), out)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = tqcoh.cli.main(argv)
    return spec, code, captured.getvalue(), out


def _set_field(line, k, value):
    fields = line.rstrip("\n").split(",")
    fields[k] = value
    return ",".join(fields) + "\n"


def test_verify_check_rejects_corrupted_reports(tmp_path, monkeypatch):
    spec, code, stdout, _ = _op_output("verify", tmp_path, monkeypatch)
    assert checks.check_verify(spec, code, stdout) is None
    doc = json.loads(stdout)

    def corrupt(edit):
        bad = json.loads(stdout)
        edit(bad)
        return checks.check_verify(spec, code, json.dumps(bad))

    other = (doc["checks"][0]["worst_draw"] + 1) % spec["samples"]
    assert corrupt(lambda d: d["checks"][0].update(worst_draw=other))
    assert corrupt(lambda d: d["checks"][1]["worst_params"].update(e_j=0.25))
    assert corrupt(lambda d: d["checks"][2].update(max_deviation=1e-6))
    assert corrupt(lambda d: d.update(threshold=1e-3))
    assert corrupt(lambda d: d.update(passed=False))
    assert corrupt(lambda d: d["checks"].pop())
    assert checks.check_verify(spec, 2, stdout)
    assert checks.check_verify(spec, code, stdout[:-20])


@pytest.mark.parametrize("workload", ["series", "grid"])
def test_csv_checks_reject_corrupted_files(tmp_path, monkeypatch, workload):
    check = checks.check_series if workload == "series" else checks.check_grid
    spec, code, _, out = _op_output(workload, tmp_path, monkeypatch)
    pristine = out.read_text()

    def rng():
        return np.random.default_rng(0)

    assert check(spec, code, out, rng()) is None

    lines = pristine.splitlines(keepends=True)
    col = 1 if workload == "series" else 2  # the (closed-form) coherence column

    def rejects(index, edit):
        edited = list(lines)
        edited[index] = edit(lines[index])
        out.write_text("".join(edited))
        return check(spec, code, out, rng()) is not None

    # A wrong sixth decimal in the first data row, which is always sampled.
    bumped = format(float(lines[1].split(",")[col]) + 1e-6, ".12f")
    assert rejects(1, lambda line: _set_field(line, col, bumped))
    assert rejects(0, lambda line: line.replace("t", "time", 1))  # header
    assert rejects(-1, lambda line: "")  # a missing row
    assert rejects(3, lambda line: _set_field(line, col, "3.5"))  # C outside [1, 3]
    if workload == "series":
        assert rejects(2, lambda line: _set_field(line, 3, "0.001"))  # route gap
    else:
        assert rejects(1, lambda line: lines[2])  # rows out of row-major order
    out.write_text(pristine)
    assert check(spec, 3, out, rng()) is not None
