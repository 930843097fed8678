#!/usr/bin/env python3
"""tqcoh benchmark: closed-loop CLI operations with output checks.

Run from the root of a tqcoh source tree:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Each operation calls ``tqcoh.cli.main(argv)`` in this process, one at a
time (one closed-loop client), with argv drawn from ``--seed``. Every
output is checked by ``checks.py`` outside the timed region. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs an untraced half and a
traced half and reports the per-layer metrics from the spans. The last
line of standard output is one JSON object; the lines before it print the
run record and every metric by name and unit. See README.md beside this
file.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: one client, one thread of math.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

# Fixed per workload so latency has a single peak; each op takes 0.1-0.2 s on a
# 2-vCPU x86 VM, which gives the >= 100 operations op_p90_s needs.
SIZES = {
    "verify": {"samples": 50},
    "series": {"steps": 30000},
    "grid": {"steps": 200, "vsteps": 200},
}
WORKLOADS = tuple(SIZES)
MIN_OPS = 100  # op_p90_s needs at least 10 samples beyond it
MIN_TRACED_OPS = 10
WARMUP_OPS = 2
SETUP_REPEATS = 11
OVERRUN_S = 60.0  # how far past its window a measurement may go to reach its minimum
STATES = ("phi+", "psi+")
HBARS = (0.5, 1.0, 2.0)

END_TO_END = {
    "op_p50_s": "s",
    "op_p90_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run as specified (not an output failure)."""


def items_per_op(workload: str) -> int:
    """Draws, rows or cells per operation."""
    size = SIZES[workload]
    return size["samples"] if workload == "verify" else size["steps"] * size.get("vsteps", 1)


def draw_op(workload: str, rng: np.random.Generator, out: Path):
    """argv for one operation plus the spec the checker needs.

    Parameters come from the README's validated box: |e_j|, |e_m| <= 5,
    hbar in {0.5, 1, 2}, t <= 50. Floats go through repr, so tqcoh parses
    back exactly the values the checker uses.
    """
    size = SIZES[workload]
    if workload == "verify":
        spec = {"seed": int(rng.integers(0, 2**31)), "samples": size["samples"]}
        argv = ["verify", "--samples", str(spec["samples"]), "--seed", str(spec["seed"]),
                "--format", "json"]
        return argv, spec
    spec = {
        "state": STATES[int(rng.integers(len(STATES)))],
        "ej": float(rng.uniform(-5.0, 5.0)),
        "em": float(rng.uniform(-5.0, 5.0)),
        "hbar": HBARS[int(rng.integers(len(HBARS)))],
        "t_max": float(rng.uniform(1.0, 50.0)),
        "steps": size["steps"],
    }
    argv = [workload, "--state", spec["state"], f"--ej={spec['ej']!r}", f"--em={spec['em']!r}",
            f"--hbar={spec['hbar']!r}", f"--t-max={spec['t_max']!r}", "--steps", str(spec["steps"])]
    if workload == "grid":
        lo = float(rng.uniform(-5.0, 4.5))
        hi = float(rng.uniform(lo + 0.5, 5.0))
        spec.update(vary=("ej", "em")[int(rng.integers(2))], min=lo, max=hi,
                    vsteps=size["vsteps"])
        argv += ["--vary", spec["vary"], f"--min={spec['min']!r}", f"--max={spec['max']!r}",
                 "--vsteps", str(spec["vsteps"])]
    argv += ["--out", str(out)]
    return argv, spec


class Runner:
    """Draws, times and checks operations of one workload."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.check_rng = np.random.default_rng([seed, 1])
        self.out = WORK / f"{workload}-op.csv"
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.recorder = None

    def one(self) -> float:
        """Run and check one operation; return its latency. Failures are counted."""
        argv, spec = draw_op(self.workload, self.rng, self.out)
        captured = io.StringIO()
        if self.recorder is not None:
            self.recorder.op = self.attempted
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            code, error = None, traceback.format_exc()
        latency = time.perf_counter() - start
        if error is None:
            if self.workload == "verify":
                error = checks.check_verify(spec, code, captured.getvalue())
                self.bytes_out = len(captured.getvalue().encode())
            else:
                check = checks.check_series if self.workload == "series" else checks.check_grid
                error = check(spec, code, self.out, self.check_rng)
                self.bytes_out = self.out.stat().st_size if self.out.exists() else 0
        if error is not None:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {error}", file=sys.stderr)
        return latency

    def measure(self, seconds: float, min_ops: int) -> list[float]:
        """Latencies of operations run for ``seconds`` and at least ``min_ops``."""
        latencies = []
        start = time.perf_counter()
        while True:
            latencies.append(self.one())
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(latencies) >= min_ops:
                return latencies
            if elapsed >= seconds + OVERRUN_S:
                raise BenchError(
                    f"only {len(latencies)} operations in {elapsed:.0f} s; need {min_ops}"
                )


def nearest_rank(values, q: float):
    """The q-quantile by nearest rank and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q))
    return ordered[rank - 1], len(ordered) - rank


def setup_once(expected_version: str) -> float:
    """Wall time of one fresh ``python -m tqcoh --version`` (import + parser)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "tqcoh", "--version"]
    start = time.perf_counter()
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or done.stdout.strip() != f"tqcoh {expected_version}":
        raise BenchError(f"--version failed: {done.returncode} {done.stdout!r} {done.stderr!r}")
    return elapsed


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tqcoh").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def run_record(args, tqcoh_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": SIZES[args.workload],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tqcoh": tqcoh_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "client": "one closed-loop client in this process",
    }


def end_to_end(runner: Runner, latencies: list[float]) -> tuple[dict, dict]:
    p90, beyond = nearest_rank(latencies, 0.9)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "items_per_s": items_per_op(runner.workload) * len(latencies) / sum(latencies),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }
    info = {"ops": len(latencies), "op_p90_beyond": beyond}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def traced(runner: Runner, seconds: float) -> tuple[dict, dict, dict]:
    """Alternate untraced and traced operations; per-layer metrics from the spans.

    Alternating, rather than running two halves, exposes both kinds of
    operation to the same machine conditions, so ``trace.overhead_frac``
    measures the wrappers and not a drift in background load.
    """
    recorder = spans.SpanRecorder()
    plain, latencies = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_TRACED_OPS:
        plain.append(runner.one())
        recorder.install()
        runner.recorder = recorder
        try:
            latencies.append(runner.one())
        finally:
            runner.recorder = None
            recorder.uninstall()
    recorder.save(WORK / f"spans-{runner.workload}.npz")
    data = recorder.arrays()
    calls, selfs, wall = spans.per_op(data)
    metrics, self_s = spans.layer_metrics(
        calls, selfs, wall, items_per_op(runner.workload), runner.bytes_out
    )
    overhead = statistics.median(latencies) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    info = {
        "untraced_ops": len(plain),
        "traced_ops": len(latencies),
        "calls_repeat_exactly": bool(np.all(calls == calls[0])),
        "spans": int(len(data["start"])),
    }
    return metrics, self_s, info


def untraced(runner: Runner, seconds: float, version: str) -> tuple[dict, dict]:
    """End-to-end metrics, with set-up samples spread over the window.

    Background load on a shared host drifts over tens of seconds, so set-up
    is sampled once per slice of the run rather than in one burst.
    """
    latencies, setup = [], []
    for _ in range(SETUP_REPEATS):
        latencies += runner.measure(seconds / SETUP_REPEATS, 1)
        setup.append(setup_once(version))
    if len(latencies) < MIN_OPS:
        latencies += runner.measure(0.0, MIN_OPS - len(latencies))
    metrics, info = end_to_end(runner, latencies)
    metrics["setup_s"] = (statistics.median(setup), "s")
    return metrics, info


def run_workload(tqcoh, workload: str, args):
    """(result metrics, printed-only metrics, run info, runner) of one run."""
    runner = Runner(tqcoh.cli, workload, args.seed)
    for _ in range(WARMUP_OPS):
        runner.one()
    if args.trace:
        metrics, printed_only, info = traced(runner, args.seconds)
    else:
        setup_once(tqcoh.__version__)  # the first start may still compile bytecode
        metrics, info = untraced(runner, args.seconds, tqcoh.__version__)
        printed_only = {}
    return metrics, printed_only, info, runner


def load_tqcoh():
    """Import tqcoh from this tree's ``src``, never from an installed copy."""
    if not (SRC / "tqcoh" / "cli.py").is_file():
        raise BenchError(f"no tqcoh sources under {SRC}; run from a tqcoh source tree")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tqcoh
    import tqcoh.cli

    if Path(tqcoh.__file__).resolve().parent != (SRC / "tqcoh").resolve():
        raise BenchError(f"imported tqcoh from {tqcoh.__file__}, not from {SRC}")
    return tqcoh


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        tqcoh = load_tqcoh()
        WORK.mkdir(exist_ok=True)
        record = run_record(args, tqcoh.__version__)
        metrics, printed_only, info, runner = run_workload(tqcoh, args.workload, args)
        runner.out.unlink(missing_ok=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    record.update(info, threads=threading.active_count())
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in {**metrics, **printed_only}.items():
        print(f"{name:<44s} {value:.6g} {unit}")
    print(f"{'failed_ops_frac':<44s} {runner.failed / runner.attempted:.6g} frac")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
