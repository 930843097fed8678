import argparse
import dataclasses
import hashlib
import json
import pathlib
import shlex
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tqcoh.cli as cli_module
import tqcoh.scan as scan_module
from tqcoh.cli import EXIT_INVARIANT, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from tqcoh.coherence import closed_form_coherence, l1_coherence
from tqcoh.evolution import BellLabel, bell_state, density_matrix, evolve, numeric_propagator
from tqcoh.model import CircuitParams


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


def test_evolve_gap_is_the_two_route_gap(capsys):
    # A minimum of C at e_m = 0, where the exact value is 1.00000002 and
    # cos(t root / 2) + 1 would cancel in the closed form: C(numeric) comes
    # from the spectral propagator, and the gap is between it and the
    # closed form, which keeps its digits there.
    params = CircuitParams(1.0, 0.0, 1.0)
    t = 1.5707963317948966
    code, out, _ = run_cli(
        ["evolve", "--state", "phi+", "--ej", "1", "--em", "0", "--t", repr(t)], capsys
    )
    assert code == EXIT_OK
    assert "C(numeric) = 1.000000020000" in out
    assert "C(closed)  = 1.000000020000" in out
    spectral = evolve(bell_state(BellLabel.PHI_PLUS), numeric_propagator(params, t))
    c_numeric = l1_coherence(density_matrix(spectral))
    closed = closed_form_coherence(BellLabel.PHI_PLUS, params, t)
    assert f"gap = {abs(c_numeric - closed):.12g}\n" in out


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


# Whole-file digests; times print as %.12g (exponent forms, negative axis
# values and an exact 0 included) and values with 12 decimals. Computed
# on x86-64 with numpy 2.x: a libm whose sin/cos differ by an ulp could
# move a last printed digit.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["series", "--state", "phi+"],
            "3d581ddce056789fdd138abaa51e9ae920805d8f44cdc4d4e3e48c836ec3d3aa",
        ),
        (
            ["grid", "--state", "psi+", "--vary", "em", "--min", "-1.5", "--max", "1.5",
             "--vsteps", "7", "--steps", "9", "--t-max", "1e-4"],
            "1cc09f37cf872f5731125daa28c5217b2710bc9b0ac25731d36b98e84c6da418",
        ),
        (
            # 10000 rows: four full 2048-row blocks of the numeric column
            # and of the writer, and a partial fifth.
            ["series", "--state", "psi+", "--ej", "1.3", "--em=-0.7", "--hbar", "2",
             "--t-max", "40", "--steps", "10000"],
            "9b8f5e54b7d18751dca401fea11b2e19c5f3fbcb81f98ac083c7f9d437ace9f4",
        ),
        (
            # 10201 lines in blocks of 20 axis rows (2020 lines).
            ["grid", "--state", "phi+", "--vary", "ej", "--min", "0", "--max", "0.5"],
            "688b0729c7b18bc1b51e2e2d7ae12dbf344be929eb9a1d1c7b3a910bf0fc2fd0",
        ),
        (
            # The size of the benchmark's grid workload: 40000 lines.
            ["grid", "--state", "psi+", "--vary", "em", "--min=-5", "--max", "5",
             "--hbar", "2", "--t-max", "50", "--steps", "200", "--vsteps", "200"],
            "5cfd6e7530673ec12908b8bf12eef1110ee21d7eb82f8af13b17eb0203282bdf",
        ),
        (
            # The size of the benchmark's series workload: 30000 lines.
            ["series", "--state", "phi+", "--ej=-3.7", "--em", "4.1", "--hbar", "0.5",
             "--t-max", "50", "--steps", "30000"],
            "8dd7fcdf6efb19396476ef1324c6e48e7ce8a677663bdcefc2d7ff5394f997b4",
        ),
        (
            # Times 0 and 5e-05 print as "%.12g" one by one; 0.0001 and up
            # are fixed notation.
            ["series", "--state", "phi+", "--t-max", "3e-4", "--steps", "7"],
            "15214dead90fe81d3a8482b798baadea9bad684586dd0f38b7993a286398fbb7",
        ),
        (
            # Every time is 0 or in exponent form; phi- is stationary, so C
            # is 1 at any t.
            ["grid", "--state", "phi-", "--vary", "ej", "--min", "0", "--max", "1",
             "--vsteps", "3", "--steps", "4", "--t-max", "1e300"],
            "a3c904752f1dfb59015d6aa1694b54edd8837a298cd8315d571eacfb3cf854e7",
        ),
    ],
    ids=["series", "grid", "series-three-blocks", "grid-blocks", "grid-benchmark-size",
         "series-benchmark-size", "series-exponent-times", "grid-exponent-times"],
)
def test_csv_golden_bytes(argv, digest, tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    code, _, _ = run_cli(argv + ["--out", str(out_file)], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


# Whole-document digests of the JSON writer: key order, indentation,
# float repr and the closing newline.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["series", "--state", "phi+", "--steps", "5", "--format", "json"],
            "fffbffc9099d232970a0e4ce10fb232bad3295f12760d79b160a7e9ae951844d",
        ),
        (
            ["grid", "--state", "psi+", "--vary", "em", "--min=-1.5", "--max", "1.5",
             "--vsteps", "3", "--steps", "4", "--format", "json"],
            "9707ddd61b5748c212ee7ce4811fc85fc5373c5b3227cc3fc1e6b3e6b4230d87",
        ),
        (
            # The reference report: every deviation, worst draw and its point.
            ["verify", "--samples", "1000", "--seed", "42", "--format", "json"],
            "777d18a87fb66be905fedd93508744be2b4777e87e5a75f7e2e1d42ed219f1e6",
        ),
    ],
    ids=["series", "grid", "verify"],
)
def test_json_golden_bytes(argv, digest, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            # 19 full blocks of 256 draws and a partial one, at the real block size.
            ["verify", "--samples", "5000", "--seed", "7"],
            "15b26e429bf30a80fc17937796157d883aef2356fb3cf5ce3b2858678179feb2",
        ),
        (
            ["verify", "--samples", "1000", "--seed", "42"],
            "b04dd7d28524a5f70b4e947926f28439d5a63b91a371b7c9ada2663e57d81ed6",
        ),
        (
            # The README's evolve example.
            ["evolve", "--state", "phi+", "--t", "1.7346"],
            "a7f0722a951369b9281a192200261aba9e7a59eafa8a60730c064e6aa35c58cb",
        ),
        (
            # Spectral bits at an hbar that is not a power of two.
            ["evolve", "--state", "psi+", "--ej", "1.3", "--em=-0.7", "--hbar", "1.7",
             "--t", "12.5"],
            "453a78837db9c69b3843db9797fecaca0f83a00cbef66922b06daadb43c57e9d",
        ),
        (
            # The README's optimize examples.
            ["optimize", "--state", "phi+", "--t-min", "0", "--t-max", "10",
             "--objective", "maximize"],
            "7ed201b4bf7a7bb07807feaeef6c6147bd9dacbd06d811811653483fb576e483",
        ),
        (
            ["optimize", "--state", "phi+", "--ej", "0", "--objective", "stabilize"],
            "86b29d22a4ff9981774146b3cf902659c4fa8c88b84bb1d024d8e8496b78d396",
        ),
    ],
    ids=["verify-seed-7", "verify-seed-42", "evolve", "evolve-hbar", "optimize-maximize",
         "optimize-stabilize"],
)
def test_text_golden_bytes(argv, digest, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


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


def test_series_at_large_energies(capsys):
    # The eigen residual there is ~1e-9, above an absolute 1e-10 but far
    # below the certificate's 64 eps ||H||_F.
    code, out, err = run_cli(
        ["series", "--state", "phi+", "--ej", "1e6", "--em", "1e6", "--steps", "3"],
        capsys,
    )
    assert code == EXIT_OK, err
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["--ej", "1", "--em", "0", "--hbar", "1e-308", "--t-max", "10"],
        ["--ej", "1e-300", "--em", "0", "--hbar", "1e-10", "--t-max", "1e300"],
        ["--ej", "3e-309", "--em", "1e-308", "--t-max", "1e308"],
    ],
    ids=["hbar-1e-308", "ej-1e-300", "both-subnormal"],
)
def test_series_with_a_subnormal_hamiltonian(argv, capsys):
    # Every entry of H is subnormal: a Jacobi solve that zeroed them would
    # leave c_numeric at 1 while the closed form moves past 2.
    code, out, err = run_cli(["series", "--state", "phi+", *argv, "--steps", "3"], capsys)
    assert code == EXIT_OK, err
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    assert rows[-1][1] > 2.0
    assert max(row[3] for row in rows) <= 1e-12


def test_series_rejects_single_step(capsys):
    code, _, _ = run_cli(["series", "--state", "phi+", "--steps", "1"], capsys)
    assert code == EXIT_USAGE


def test_series_unwritable_destination(capsys):
    code, _, err = run_cli(
        ["series", "--state", "phi+", "--out", "/nonexistent/dir/out.csv"], capsys
    )
    assert code == EXIT_IO
    assert "i/o error" in err


def test_an_unallocatable_series_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # Raised by a stand-in with numpy's message: the real 7.28 TiB request
    # can succeed under memory overcommit and then exhaust memory.
    message = (
        "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"
        " and data type float64"
    )

    def unallocatable(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli_module, "time_series", unallocatable)
    out_file = tmp_path / "out.csv"
    code, _, err = run_cli(
        ["series", "--state", "phi+", "--steps", "1000000000000", "--out", str(out_file)],
        capsys,
    )
    assert code == EXIT_USAGE
    assert err == f"tqcoh: error: {message}\n"
    assert not out_file.exists()


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


# ------------------------------------------------------------- CSV values


def assert_prints_like_printf(values):
    x = np.asarray(values, dtype=float)
    assert cli_module._fixed12(x).tolist() == [b"%.12f" % v for v in x.tolist()]


def test_fixed12_on_exact_ties_and_their_neighbours():
    # m / 8192 for odd m has 13 decimals, the last a 5: a tie at 12 decimals.
    ties = np.arange(1, 8 * 8192, 2) / 8192
    for x in (ties, np.nextafter(ties, 0.0), np.nextafter(ties, 10.0)):
        assert_prints_like_printf(x)
    # Near-ties: np.rint of the float product v * 1e12 rounds each of these
    # the wrong way (1.441596127196 for the first).
    assert_prints_like_printf([1.4415961271965, 9.5046369632585, 3.1183145201045])


def test_fixed12_on_uniform_values():
    assert_prints_like_printf(np.random.default_rng(10).uniform(0.0, 10.0, 100_000))


def test_fixed12_at_the_edges_of_its_domain():
    # 9.9999999999995 rounds up to 10.000000000000, one character wider.
    assert_prints_like_printf(
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 5e-13, 9.9999999999995,
         np.nextafter(10.0, 0.0)]
    )


@given(st.lists(st.floats(0.0, 10.0, exclude_max=True), min_size=1, max_size=50))
def test_fixed12_on_any_value_of_its_domain(values):
    assert_prints_like_printf(values)


@pytest.mark.parametrize("bad", [-0.0, -5e-324, -1.0, 10.0, 1e300, np.inf, -np.inf, np.nan])
def test_fixed12_rejects_values_outside_its_domain(bad):
    with pytest.raises(ValueError, match=r"outside \[0, 10\)"):
        cli_module._check_fixed12(np.array([1.5, bad]))


@pytest.mark.parametrize(
    "command, field, bad",
    [("series", "numeric", 10.0), ("series", "gap", -0.0), ("grid", "values", -0.0)],
)
def test_csv_values_outside_the_domain_exit_2_before_the_file_opens(
    command, field, bad, tmp_path, monkeypatch, capsys
):
    # The bad value sits in the last writer block, after whole blocks that
    # would already be written if the check ran block by block.
    compute = "time_series" if command == "series" else "grid_scan"
    true_compute = getattr(cli_module, compute)

    def spoiled(*args):
        result = true_compute(*args)
        column = getattr(result, field).copy()
        column.flat[-1] = bad
        return dataclasses.replace(result, **{field: column})

    monkeypatch.setattr(cli_module, compute, spoiled)
    argv = {
        "series": ["series", "--state", "phi+", "--steps", "10000"],
        "grid": ["grid", "--state", "phi+", "--vary", "ej", "--min", "0", "--max", "0.5"],
    }[command]
    out_file = tmp_path / "out.csv"
    code, _, err = run_cli(argv + ["--out", str(out_file)], capsys)
    assert code == EXIT_INVARIANT
    assert f"invariant violation: CSV value {bad!r}" in err
    assert not out_file.exists()


def test_a_non_finite_series_row_exits_2_and_writes_no_file(tmp_path, monkeypatch, capsys):
    # Both routes check their phases first, so only a corrupted route can
    # reach the series' own finiteness check. Row 2 of 7 on [0, 10] is t = 10/3.
    true_closed = scan_module.closed_form_coherence

    def corrupted(label, params, t):
        values = true_closed(label, params, t)
        values[2] = np.nan
        return values

    monkeypatch.setattr(scan_module, "closed_form_coherence", corrupted)
    message = "coherence is not finite at t = 3.33333333333"
    with pytest.raises(ValueError) as raised:
        scan_module.time_series(
            BellLabel.PHI_PLUS, CircuitParams(0.5, 1.5), scan_module.TimeGrid(0.0, 10.0, 7)
        )
    assert str(raised.value) == message
    out_file = tmp_path / "out.csv"
    argv = ["series", "--state", "phi+", "--t-max", "10", "--steps", "7", "--out", str(out_file)]
    code, _, err = run_cli(argv, capsys)
    assert code == EXIT_INVARIANT
    assert f"invariant violation: {message}\n" in err
    assert not out_file.exists()


# ------------------------------------------------------- CSV times and axes


def assert_prints_like_g12(values):
    x = np.asarray(values, dtype=float)
    expected = np.array([b"%.12g" % v for v in x.tolist()], dtype="S")
    got = cli_module._g12(x)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_g12_on_any_finite_values(values):
    assert_prints_like_g12(values)


def test_g12_on_ties_and_carries():
    # A tie at 12 significant digits goes to the even digit (...901.2); the
    # two carries leave fixed notation (1e+12) and enter it (0.0001).
    assert_prints_like_g12([12345678901.25, 999999999999.5, 9.9999999999995e-05])
    # Near-ties in decades X = 0, 1, 4 and -3: np.rint of the float product
    # v * 10**(11 - X) rounds each of these the wrong way.
    assert_prints_like_g12([1.8272434792149999, 79.49573867725, 97603.16832035, 0.002930767536535])
    # For odd m, m / 2**(12 - X) times 10**(11 - X) is m * 5**(11 - X) / 2:
    # an exact tie, in decade X for the m drawn here.
    rng = np.random.default_rng(11)
    for x in range(-4, 12):
        five = 5 ** (11 - x)
        m = 2 * rng.integers(10**11 // five, 10**12 // five, 2000) + 1
        ties = m / 2.0 ** (12 - x)
        scaled = Fraction(ties[0]) * 10 ** (11 - x)
        assert 10**11 < scaled < 10**12 and scaled % 1 == Fraction(1, 2)
        for values in (ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), -ties):
            assert_prints_like_g12(values)


@pytest.mark.parametrize("edge", [float(f"1e{k}") for k in range(-5, 14)])
def test_g12_around_the_notation_switches(edge):
    # Every decade boundary of the kernel, and the switches to and from
    # exponent notation at 1e-4 and 1e12.
    below, above = [edge], [edge]
    for _ in range(4):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    values = np.array(below + above)
    assert_prints_like_g12(values)
    assert_prints_like_g12(-values)


def test_g12_on_zeros_and_extremes():
    assert_prints_like_g12(
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    )


def test_g12_on_mixed_signs_and_on_a_column_without_fixed_notation():
    rng = np.random.default_rng(12)
    assert_prints_like_g12(np.linspace(-5.0, 5.0, 201))
    assert_prints_like_g12(rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(-6, 13, 5000))
    assert_prints_like_g12([0.0, -0.0, 3e-6, -1e-300, 1e12, -4.5e15, 1e300])


@pytest.mark.parametrize("t_max", [3e-4, 50.0, 1e13])
def test_g12_on_every_block_of_a_series_time_column(t_max):
    times = np.linspace(0.0, t_max, 30000)
    for lo in range(0, len(times), scan_module._BLOCK_ROWS):
        assert_prints_like_g12(times[lo : lo + scan_module._BLOCK_ROWS])


def test_g12_decades_are_never_below_their_powers_of_ten():
    # The kernel's decade search relies on it: each entry is the least
    # double at or above 10**k, so the search finds every value's exact
    # decade, and its 12 digits never need a second rounding.
    for k, power in zip(range(-5, 12), cli_module._DECADES.tolist()):
        assert Fraction(power) >= Fraction(10) ** k
        if Fraction(power) > Fraction(10) ** k:
            assert Fraction(np.nextafter(power, 0.0)) < Fraction(10) ** k


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
    true_u = scan_module._closed_form_u
    monkeypatch.setattr(scan_module, "_closed_form_u", lambda terms, t: true_u(terms, t * 1.001))
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
        ["evolve", "--state", "phi+", "--ej", "abc"],
    ],
)
def test_non_finite_flags_are_usage_errors(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert f"{argv[-1].split('=')[-1]!r} is not a finite number" in err


@pytest.mark.parametrize(
    "argv",
    [
        # hbar e_m overflows, so the period was pi / inf = 0 and the
        # operating-point search divided by it.
        ["optimize", "--state", "phi+", "--ej=-1.1450272672090684e-38",
         "--em=1.697692495261378e+207", "--hbar=9.967526364410598e+213", "--t-min", "0",
         "--t-max=6.186892202255073e+188"],
        # hbar^2 e_m / 4 overflows inside the Hamiltonian build.
        ["series", "--state", "phi+", "--hbar", "1e200", "--steps", "3"],
        # A range end outside the domain; the base parameters are fine.
        ["grid", "--state", "phi+", "--hbar", "2", "--vary", "em", "--min", "0",
         "--max", "1e308", "--steps", "3", "--vsteps", "3"],
    ],
    ids=["optimize", "series", "grid"],
)
def test_parameters_out_of_range_are_usage_errors(argv, tmp_path):
    out_file = tmp_path / "out"
    if argv[0] != "optimize":
        argv = argv + ["--out", str(out_file)]
    proc = subprocess.run(
        [sys.executable, "-m", "tqcoh", *argv], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_USAGE
    assert "parameters out of range" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout == ""
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # hbar^2 overflows, but the coupling hbar (hbar e_m) / 4 is 0 ...
        ["optimize", "--state", "phi+", "--hbar", "3e154", "--ej", "1", "--em", "0"],
        # ... or 2.5e199: the product decides, not its first factor.
        ["optimize", "--state", "phi+", "--hbar", "1e200", "--em", "1e-200"],
    ],
    ids=["coupling-zero", "coupling-finite"],
)
def test_coupling_overflow_is_judged_on_the_product(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert "coherence = " in out


@pytest.mark.parametrize(
    "argv, value",
    [
        (["series", "--state", "phi+", "--steps", "1"], "got 1"),
        (["grid", "--state", "phi+", "--vary", "ej", "--min", "0", "--max", "1", "--steps", "1"],
         "got 1"),
        (["grid", "--state", "phi+", "--vary", "ej", "--min", "0", "--max", "1", "--vsteps", "1"],
         "got 1"),
        (["series", "--state", "phi+", "--t-max", "0"], "[0.0, 0.0]"),
        (["grid", "--state", "phi+", "--vary", "ej", "--min", "1", "--max", "1"], "[1.0, 1.0]"),
        (["optimize", "--state", "phi+", "--t-min", "5", "--t-max", "5"], "[5.0, 5.0]"),
        (["verify", "--samples", "0"], "got 0"),
        (["series", "--state", "phi+", "--hbar", "0"], "got 0.0"),
        (["series", "--state", "phi+", "--hbar", "1e200"], "hbar=1e+200"),
        (["verify", "--seed=-1"], "seed, got -1"),
        # numpy cannot size these grids: it raises ValueError, not MemoryError.
        (["series", "--state", "phi+", "--steps", "4611686018427387904"],
         "4611686018427387904 steps"),
        (["series", "--state", "phi+", "--steps", "99999999999999999999999"],
         "99999999999999999999999 steps"),
    ],
    ids=["series-steps", "grid-steps", "grid-vsteps", "t-max", "grid-range", "optimize-window",
         "verify-samples", "hbar-zero", "hbar-out-of-range", "verify-seed", "series-too-big",
         "series-beyond-int64"],
)
def test_library_input_errors_are_usage_errors(argv, value, tmp_path, capsys):
    out_file = tmp_path / "out"
    if argv[0] in ("series", "grid"):
        argv = argv + ["--out", str(out_file)]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert err.startswith("usage: tqcoh ")
    assert "\ntqcoh: error: " in err and value in err
    assert "Traceback" not in err
    assert out == ""
    assert not out_file.exists()


def test_grid_checks_the_range_not_the_replaced_flag(capsys):
    argv = ["grid", "--state", "phi+", "--vary", "em", "--em", "1e308", "--hbar", "2",
            "--min", "0", "--max", "1", "--steps", "3", "--vsteps", "3"]
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert len(out.splitlines()) == 10


def test_negative_scientific_numbers_need_the_equals_form(capsys):
    code, out, _ = run_cli(["evolve", "--state", "phi+", "--ej=-1e5"], capsys)
    assert code == EXIT_OK
    assert "e_j=-100000 " in out
    code, _, err = run_cli(["evolve", "--state", "phi+", "--ej", "-1e5"], capsys)
    assert code == EXIT_USAGE
    assert "expected one argument" in err


def test_main_builds_the_parser_once(monkeypatch, capsys):
    build_parser, builds = cli_module.build_parser, []

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli_module, "_PARSER", None)
    monkeypatch.setattr(cli_module, "build_parser", counting_build)
    series = ["series", "--state", "phi+", "--steps", "2", "--format", "json"]
    metas = []
    for argv in (series + ["--ej", "2", "--hbar", "0.5"], series, ["--version"], series):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        if argv[0] == "series":
            metas.append(json.loads(out)["meta"]["params"])
    assert builds == [1]
    default = {"e_j": 0.5, "e_m": 1.5, "hbar": 1.0}
    assert metas == [{"e_j": 2.0, "e_m": 1.5, "hbar": 0.5}, default, default]


_PARAMS = [
    (("--state",), None, True, ("phi+", "psi+", "phi-", "psi-")),
    (("--ej",), 0.5, False, None),
    (("--em",), 1.5, False, None),
    (("--hbar",), 1.0, False, None),
]
_OUTPUT = [(("--out",), "-", False, None), (("--format",), "csv", False, ("csv", "json"))]


def test_each_subcommand_keeps_its_arguments_in_order():
    # (option strings, default, required, choices) of every argument but
    # --help; the help text itself wraps with COLUMNS and the Python version.
    expected = {
        "evolve": _PARAMS + [(("--t",), 0.0, False, None)],
        "series": _PARAMS + [
            (("--t-max",), 10.0, False, None),
            (("--steps",), 1001, False, None),
        ] + _OUTPUT,
        "grid": _PARAMS + [
            (("--t-max",), 10.0, False, None),
            (("--steps",), 101, False, None),
            (("--vary",), None, True, ("ej", "em")),
            (("--min",), None, True, None),
            (("--max",), None, True, None),
            (("--vsteps",), 101, False, None),
        ] + _OUTPUT,
        "verify": [
            (("--samples",), 1000, False, None),
            (("--seed",), 42, False, None),
            (("--format",), "text", False, ("text", "json")),
        ],
        "optimize": _PARAMS + [
            (("--t-min",), 0.0, False, None),
            (("--t-max",), 10.0, False, None),
            (("--objective",), "maximize", False, ("maximize", "stabilize")),
        ],
    }
    parser = cli_module.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [
            (tuple(a.option_strings), a.default, a.required, a.choices)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in subparsers.choices.items()
    }
    assert found == expected
    assert list(found) == list(expected)


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


@pytest.mark.parametrize(
    "argv, bad_t",
    [
        (["series", "--state", "phi+", "--ej", "5", "--t-max", "1e308", "--steps", "3"],
         "5e+307 (e_j=5.0, e_m=1.5, hbar=1.0)"),
        (["series", "--state", "phi+", "--ej", "5", "--t-max", "1e308", "--steps", "3",
          "--format", "json"], "5e+307"),
        (["grid", "--state", "phi+", "--vary", "ej", "--min", "-1", "--max", "1",
          "--vsteps", "3", "--steps", "3", "--t-max", "1e308"],
         "5e+307 (e_j=-1.0, e_m=1.5, hbar=1.0)"),
        (["evolve", "--state", "phi+", "--ej", "5", "--t", "1e308"], "1e+308"),
        (["optimize", "--state", "phi+", "--t-max", "1e308"], "1e+308"),
        # Far window: the phase at its start overflows, and the one
        # closed-form call that scores the candidates names it first.
        (["optimize", "--state", "phi+", "--ej", "1e10", "--t-min", "1e300",
          "--t-max", "1e301"], "1e+300 (e_j=10000000000.0"),
        # The closed-form phase is finite; the spectral one, t lambda / hbar
        # with lambda ~ hbar e_j, overflows in t lambda.
        (["series", "--state", "phi+", "--hbar", "1e200", "--ej", "1", "--em", "0",
          "--t-max", "1e110", "--steps", "3"], "5e+109 (e_j=1.0, e_m=0.0, hbar=1e+200)"),
        (["evolve", "--state", "phi+", "--hbar", "1e200", "--ej", "1", "--em", "0",
          "--t", "1e110"], "1e+110 (e_j=1.0, e_m=0.0, hbar=1e+200)"),
    ],
    ids=["series-csv", "series-json", "grid", "evolve", "optimize", "optimize-far-window",
         "series-spectral-phase", "evolve-spectral-phase"],
)
def test_non_finite_coherence_is_an_invariant_violation(argv, bad_t, tmp_path):
    # In a subprocess, so that any numpy RuntimeWarning reaches stderr: the
    # overflowing phase must be rejected before numpy computes it.
    out_file = tmp_path / "out"
    if argv[0] in ("series", "grid"):
        argv = argv + ["--out", str(out_file)]
    proc = subprocess.run(
        [sys.executable, "-m", "tqcoh", *argv], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_INVARIANT
    assert "invariant violation" in proc.stderr
    assert f"not finite at t = {bad_t}" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out_file.exists()


def _readme_commands() -> list[list[str]]:
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("tqcoh ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # Files the examples write land in tmp_path.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_OK, (argv, err)


def test_subprocess_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "tqcoh", "series"], capture_output=True, text=True
    )
    assert proc.returncode == 1


def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
