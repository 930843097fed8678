"""The command-line contract over the whole finite input range.

Energies, hbar and times are drawn log-uniformly from 1e-310 to 1e308, far
outside the validated box. Whatever the input, ``main`` returns 0, 1
(usage) or 2 (invariant violation), lets no exception escape and prints
no numpy RuntimeWarning (the suite turns one into an error), and a run
that fails writes no file.
"""

import contextlib
import io
import pathlib
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import magnitudes, signed
from tqcoh.cli import main

_STATES = ("phi+", "psi+", "phi-", "psi-")


def flag(name: str, value) -> str:
    # The "=" form, so that argparse takes a negative exponent as a value.
    return f"--{name}={value}"


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(("evolve", "series", "grid", "verify", "optimize")))
    if command == "verify":
        return [command, flag("samples", draw(st.integers(1, 3))),
                flag("seed", draw(st.integers(0, 2**32 - 1)))]
    argv = [command, "--state", draw(st.sampled_from(_STATES)),
            flag("ej", draw(signed())), flag("em", draw(signed())),
            flag("hbar", draw(magnitudes(zero=False)))]
    if command == "evolve":
        argv.append(flag("t", draw(signed())))
    elif command == "series":
        argv += [flag("t-max", draw(magnitudes())), flag("steps", draw(st.integers(2, 4)))]
    elif command == "grid":
        lo, hi = sorted(draw(st.tuples(signed(), signed())))
        argv += [flag("vary", draw(st.sampled_from(("ej", "em")))), flag("min", lo),
                 flag("max", hi), flag("t-max", draw(magnitudes())),
                 flag("steps", draw(st.integers(2, 3))), flag("vsteps", draw(st.integers(2, 3)))]
    else:
        lo, hi = sorted(draw(st.tuples(signed(), signed())))
        argv += [flag("t-min", lo), flag("t-max", hi),
                 flag("objective", draw(st.sampled_from(("maximize", "stabilize"))))]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argvs())
# Each phase overflow exits 2 instead of printing numpy warnings.
@example(["evolve", "--state", "phi+", "--ej", "5", "--t", "1e308"])
@example(["optimize", "--state", "phi+", "--t-max", "1e308"])
# A far window: its edges' phases overflow, so it exits 2 naming t = 1e+300.
@example(["optimize", "--state", "phi+", "--ej", "1e10", "--t-min", "1e300", "--t-max", "1e301"])
# lo - t* overflowed inside a copy index (uncaught OverflowError); two
# remainders in [0, period] place the copy, and this exits 0.
@example(["optimize", "--state", "phi+", "--ej=1.848e-308", "--em=0", "--t-min=-1e308",
          "--t-max=1e308"])
# hbar e_m overflowed, so the period was pi / inf = 0 (ZeroDivisionError).
@example(["optimize", "--state", "phi+", "--ej=-1.1450272672090684e-38",
          "--em=1.697692495261378e+207", "--hbar=9.967526364410598e+213", "--t-min", "0",
          "--t-max=6.186892202255073e+188"])
# hbar^2 e_m / 4 overflowed inside the Hamiltonian build.
@example(["series", "--state", "phi+", "--hbar", "1e200", "--steps", "3"])
# Every entry of H was finite, but the eigensolve's H + H^T overflowed
# (numpy RuntimeWarnings, then exit 2).
@example(["series", "--state", "phi+", "--hbar", "3", "--em", "5e307", "--ej", "0",
          "--steps", "3"])
# hbar^2 overflows, hbar (hbar e_m) / 4 does not: both exit 0.
@example(["optimize", "--state", "phi+", "--hbar", "3e154", "--ej", "1", "--em", "0"])
@example(["optimize", "--state", "phi+", "--hbar", "1e200", "--em", "1e-200"])
# A subnormal hbar: numpy's complex division by hbar overflowed.
@example(["series", "--state", "psi-", "--ej=0.0", "--em=1e+16", "--hbar=1.775538867075704e-309",
          "--t-max=1.3598757303230108e-76", "--steps=3"])
def test_every_finite_input_meets_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        if argv[0] in ("series", "grid"):
            argv = argv + ["--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        if code != 0:
            assert not out.exists()
