"""In-memory span recorder wrapped around tqcoh's public layer boundaries.

The wrappers live here, in the benchmark, not in the package: ``install``
rebinds each traced name in every ``tqcoh`` module that holds it, so calls
made through ``from .linalg import hermitian_eigensystem`` style imports are
traced too. Each span keeps its name, start, end, parent span and the
operation id set by the caller, so spans nest by operation. Nothing is
aggregated while tracing; :func:`per_op` derives self times from the
stored spans afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Public functions traced, by layer (= tqcoh module).
TRACED = {
    "model": ("build_hamiltonian_tensor",),
    "linalg": ("hermitian_eigensystem",),
    "evolution": (
        "analytic_propagator",
        "numeric_propagator",
        "closed_form_density",
        "evolve",
        "density_matrix",
    ),
    "coherence": ("closed_form_coherence", "l1_coherence"),
    "scan": ("cross_validate", "time_series", "grid_scan"),
    "cli": ("main",),
}
# Value objects whose constructors run a certificate; one span name for all.
CERTIFIED = ("StateVector", "UnitaryMatrix", "DensityMatrix")
CERTIFY = "evolution.certify"

LAYERS = tuple(TRACED)
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns) + (
    CERTIFY,
)
TOP = "cli.main"


class SpanRecorder:
    """Collects spans in flat arrays; ``op`` tags every span started."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return spanned

    def install(self):
        """Rebind every traced name in each loaded ``tqcoh`` module."""
        modules = [m for n, m in sys.modules.items() if n == "tqcoh" or n.startswith("tqcoh.")]
        for layer, fns in TRACED.items():
            home = sys.modules[f"tqcoh.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))
        evolution = sys.modules["tqcoh.evolution"]
        for cls_name in CERTIFIED:
            cls = getattr(evolution, cls_name)
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.wrap(CERTIFY, cls.__init__)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int_).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int_).copy(),
        }

    def save(self, path):
        """Write every span to ``path`` (numpy .npz, one array per field)."""
        np.savez(path, **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Calls are synchronous and single-threaded, so children of one span never
    overlap and their durations simply add.
    """
    duration = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(
        spans["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - child


def per_op(spans: dict):
    """Calls and self time per (operation, SPAN_NAMES entry); wall time per operation.

    An operation's wall time is the duration of its ``cli.main`` span.
    """
    ops, row = np.unique(spans["op"], return_inverse=True)
    col = np.array([SPAN_NAMES.index(n) for n in spans["names"]], dtype=int)[spans["name_id"]]
    calls = np.zeros((len(ops), len(SPAN_NAMES)))
    selfs = np.zeros_like(calls)
    np.add.at(calls, (row, col), 1.0)
    np.add.at(selfs, (row, col), self_times(spans))
    top = col == SPAN_NAMES.index(TOP)
    wall = np.zeros(len(ops))
    np.add.at(wall, row[top], (spans["end"] - spans["start"])[top])
    return calls, selfs, wall


def layer_metrics(calls, selfs, wall, items_per_op: int, bytes_per_op: float):
    """Per-layer metrics from the :func:`per_op` tables, and the self times.

    ``<span>.calls`` is calls per operation, ``.share`` the median over
    operations of self time over the operation's wall time, and
    ``<span>.self_s`` (returned apart) the median over operations of the
    span's summed self time. A span a workload never calls has a self time of
    exactly 0 on every run, which is no measurement, so self times are
    printed but left out of the result line; the shares carry them there.
    """
    top = SPAN_NAMES.index(TOP)
    out: dict[str, tuple[float, str]] = {}
    self_s = {f"{n}.self_s": (float(np.median(selfs[:, j])), "s") for j, n in enumerate(SPAN_NAMES)}
    for j, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls"] = (float(calls[:, j].mean()), "calls/op")
        out[f"{name}.share"] = (float(np.median(selfs[:, j] / wall)), "frac")
    for layer in LAYERS:
        cols = [j for j, n in enumerate(SPAN_NAMES) if n.startswith(layer + ".")]
        out[f"{layer}.share"] = (float(np.median(selfs[:, cols].sum(axis=1) / wall)), "frac")
    certify = SPAN_NAMES.index(CERTIFY)
    out[f"{CERTIFY}.calls_per_item"] = (float(calls[:, certify].mean() / items_per_op), "calls/item")
    out["cli.bytes_out"] = (float(bytes_per_op), "B/op")
    cli_self = float(np.median(selfs[:, top]))
    out["cli.write_mb_per_s"] = (bytes_per_op / 1e6 / cli_self, "MB/s")
    return out, self_s
