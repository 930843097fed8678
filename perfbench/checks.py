"""Output checks that share no code with tqcoh.

Every operation's output is checked outside the timed region. The
coherence reference is the README's closed form, written out here in its
unnormalised textbook shape (tqcoh evaluates a rescaled variant), and the
``verify`` draws are re-derived from the documented PCG64 order. Each check
returns ``None`` when the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

VERIFY_CHECKS = {"propagator", "density", "coherence", "unitarity"}
GATE = 1e-9  # README: route disagreement above 1e-9 is a failure
C_SLACK = 1e-9  # values print with 12 decimals; C may sit a rounding below 1
SAMPLED_ROWS = 16


def readme_coherence(e_j: float, e_m: float, hbar: float, t):
    """C(t) of |phi+> / |psi+>, as printed in the README and coherence docs."""
    d = 16.0 * e_j**2 + hbar**2 * e_m**2
    root = math.sqrt(d)
    t = np.asarray(t, dtype=float)
    radicand = (
        e_j**2 * np.sin(root * t / 4.0) ** 2
        * (8.0 * e_j**2 * (np.cos(root * t / 2.0) + 1.0) + hbar**2 * e_m**2)
        / d**2
    )
    return 1.0 + 16.0 * np.sqrt(radicand)


def verify_draws(seed: int, samples: int) -> list[tuple[float, float, float, float]]:
    """(e_j, e_m, hbar, t) per draw, in the documented PCG64 draw order."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        e_j = rng.uniform(-5.0, 5.0)
        e_m = rng.uniform(-5.0, 5.0)
        hbar = float(rng.choice([0.5, 1.0, 2.0]))
        t = rng.uniform(0.0, 50.0)
        draws.append((float(e_j), float(e_m), hbar, float(t)))
    return draws


def check_verify(spec: dict, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if doc.get("passed") is not True:
        return "report did not pass"
    if doc.get("draws") != spec["samples"] or doc.get("seed") != spec["seed"]:
        return "report draws/seed differ from the request"
    threshold = doc.get("threshold")
    if not isinstance(threshold, float) or threshold > GATE:
        return f"threshold {threshold!r} is looser than {GATE}"
    checks = doc.get("checks", [])
    if {c.get("name") for c in checks} != VERIFY_CHECKS or len(checks) != len(VERIFY_CHECKS):
        return "report does not hold exactly the four checks"
    draws = verify_draws(spec["seed"], spec["samples"])
    for c in checks:
        if not 0.0 <= c["max_deviation"] <= threshold:
            return f"{c['name']} deviation {c['max_deviation']!r} above threshold"
        index = c["worst_draw"]
        if not (isinstance(index, int) and 0 <= index < len(draws)):
            return f"{c['name']} worst_draw {index!r} out of range"
        e_j, e_m, hbar, t = draws[index]
        p = c["worst_params"]
        if (p["e_j"], p["e_m"], p["hbar"], c["worst_time"]) != (e_j, e_m, hbar, t):
            return f"{c['name']} worst_params differ from draw {index}"
    return None


def _read_csv(path, header: str):
    """The numeric table and the raw data lines; ValueError if malformed."""
    with open(path, "rb") as fh:
        first, _, body = fh.read().partition(b"\n")
    if first.decode("ascii", "replace") != header:
        raise ValueError(f"header {first[:60]!r} != {header!r}")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2, dtype=float)
    return table, body.split(b"\n")


def _sample(rng: np.random.Generator, rows: int) -> np.ndarray:
    picks = rng.choice(rows, size=min(rows, SAMPLED_ROWS - 2), replace=False)
    return np.unique(np.concatenate(([0, rows - 1], picks)))


def _in_range(c: np.ndarray) -> bool:
    return bool(np.all((c >= 1.0 - C_SLACK) & (c <= 3.0 + C_SLACK)))


def check_series(spec: dict, code: int, path, rng: np.random.Generator) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        table, lines = _read_csv(path, "t,c_closed_form,c_numeric,abs_gap")
    except ValueError as exc:
        return str(exc)
    steps = spec["steps"]
    if table.shape != (steps, 4):
        return f"table shape {table.shape} != ({steps}, 4)"
    closed, numeric, gap = table[:, 1], table[:, 2], table[:, 3]
    if not (_in_range(closed) and _in_range(numeric)):
        return "coherence outside [1, 3]"
    if not np.all(gap <= GATE):
        return f"abs_gap up to {gap.max()!r} exceeds {GATE}"
    times = np.linspace(0.0, spec["t_max"], steps)
    for i in _sample(rng, steps):
        t_text = lines[i].split(b",")[0].decode()
        if t_text != format(times[i], ".12g"):
            return f"row {i}: t {t_text} != {format(times[i], '.12g')}"
        ref = readme_coherence(spec["ej"], spec["em"], spec["hbar"], times[i])
        if abs(closed[i] - ref) > GATE or abs(numeric[i] - ref) > GATE:
            return f"row {i}: C {closed[i]!r}/{numeric[i]!r} != reference {ref!r}"
    return None


def check_grid(spec: dict, code: int, path, rng: np.random.Generator) -> str | None:
    if code != 0:
        return f"exit code {code}"
    axis = {"ej": "e_j", "em": "e_m"}[spec["vary"]]
    try:
        table, lines = _read_csv(path, f"{axis},t,value")
    except ValueError as exc:
        return str(exc)
    vsteps, steps = spec["vsteps"], spec["steps"]
    if table.shape != (vsteps * steps, 3):
        return f"table shape {table.shape} != ({vsteps * steps}, 3)"
    if not _in_range(table[:, 2]):
        return "coherence outside [1, 3]"
    values = np.linspace(spec["min"], spec["max"], vsteps)
    times = np.linspace(0.0, spec["t_max"], steps)
    # Row-major long form: the varied axis is the slow index.
    scale = max(abs(spec["min"]), abs(spec["max"]), spec["t_max"])
    if not (
        np.allclose(table[:, 0], np.repeat(values, steps), rtol=0.0, atol=1e-11 * scale)
        and np.allclose(table[:, 1], np.tile(times, vsteps), rtol=0.0, atol=1e-11 * scale)
    ):
        return "axis columns are not the row-major (value, t) product"
    for k in _sample(rng, vsteps * steps):
        i, j = divmod(int(k), steps)
        a_text, t_text, _ = lines[k].decode().split(",")
        if (a_text, t_text) != (format(values[i], ".12g"), format(times[j], ".12g")):
            return f"row {k}: axes {a_text},{t_text} misformatted"
        e_j = values[i] if axis == "e_j" else spec["ej"]
        e_m = values[i] if axis == "e_m" else spec["em"]
        ref = readme_coherence(e_j, e_m, spec["hbar"], times[j])
        if abs(table[k, 2] - ref) > GATE:
            return f"row {k}: C {table[k, 2]!r} != reference {ref!r}"
    return None
