"""In-memory span tracing of augdual's layers, patched in from outside.

``patched(tracer)`` replaces each public name where the package looks it up
with a wrapper that records a span, and restores the originals on exit; the
package source is never edited. Spans live in flat integer arrays (name,
parent, root, start, end) and are written once, by ``Tracer.save``, after
the run. A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from time import perf_counter_ns

import numpy as np

from augdual import cli, linop, models, numerics, prox, solver


class Tracer:
    """Span recorder; a span's parent is the innermost span open when it
    started and its root is the outermost one."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("q")
        self.end = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self.active = True

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else sid)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(self.name_id(name))
        try:
            yield sid
        finally:
            self.close(sid)

    @contextlib.contextmanager
    def paused(self):
        """Run code (such as correctness checks) without recording it."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def table(self) -> dict:
        """Columns as numpy arrays, with self time per span."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        root = np.frombuffer(self.root, dtype=np.int64)
        dur = (
            np.frombuffer(self.end, dtype=np.int64)
            - np.frombuffer(self.start, dtype=np.int64)
        ) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return {
            "name": name,
            "parent": parent,
            "root": root,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path, meta: dict) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            root=np.frombuffer(self.root, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})),
            meta=np.array(json.dumps(meta)),
        )


def _wrap(tracer: Tracer, name: str, fn, on_return=None):
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if on_return is not None:
            on_return(sid, args, out)
        return out

    return traced


def svd_flops(rows: int, cols: int) -> float:
    """Golub-Reinsch thin SVD (U1, S, V) operation count, 14mn^2 + 8n^3
    with m >= n (Golub & Van Loan, Matrix Computations, table 8.6.1)."""
    m, n = max(rows, cols), min(rows, cols)
    return 14.0 * m * n * n + 8.0 * n**3


def apply_bytes(op, x) -> float:
    """Bytes a forward map reads and writes, computed from the shapes."""
    if isinstance(op, linop.Dense):
        rows, cols = op.matrix.shape
        return 8.0 * (rows * cols + cols + rows)
    if isinstance(op, linop.SamplingMask):
        # value, row index and column index read, one value written
        return 32.0 * len(op.indices)
    # BlockSum: two blocks read, one written
    return 8.0 * 1.5 * x.data.size


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install span wrappers on every traced name; restore them on exit."""
    last_s = {}

    def on_svd(sid, args, out):
        rows, cols = np.shape(args[0])
        tracer.attrs[sid] = {"flops": svd_flops(rows, cols)}
        last_s["s"] = out.s

    def on_svt(sid, args, out):
        s = last_s.pop("s")
        tracer.attrs[sid] = {"kept": int(np.count_nonzero(s > args[1])), "computed": int(s.size)}

    def on_power(sid, args, out):
        _, converged, iters = out
        tracer.attrs[sid] = {"iters": int(iters), "converged": bool(converged)}

    def on_apply(sid, args, out):
        tracer.attrs[sid] = {"bytes": apply_bytes(args[0], args[1])}

    svt = _wrap(tracer, "prox.svt", prox.svt, on_svt)
    targets = [
        (numerics, "svd", _wrap(tracer, "numerics.svd", numerics.svd, on_svd)),
        (numerics, "power_iteration",
         _wrap(tracer, "numerics.power_iteration", numerics.power_iteration, on_power)),
        (numerics, "operator_norm_estimate",
         _wrap(tracer, "numerics.norm_estimate", numerics.operator_norm_estimate)),
        (prox, "svt", svt),
        (models, "svt", svt),
        (solver, "regularizer_prox",
         _wrap(tracer, "solver.regularizer_prox", solver.regularizer_prox)),
        (linop.LinearOperator, "apply",
         _wrap(tracer, "linop.apply", linop.LinearOperator.apply, on_apply)),
        (linop.LinearOperator, "adjoint",
         _wrap(tracer, "linop.adjoint", linop.LinearOperator.adjoint)),
        (linop.Point, "__post_init__",
         _wrap(tracer, "linop.point", linop.Point.__post_init__)),
        (cli, "generate_instance",
         _wrap(tracer, "cli.generate_instance", cli.generate_instance)),
        (models, "tau_heuristic", _wrap(tracer, "models.tau_heuristic", models.tau_heuristic)),
        (models, "build_problem", _wrap(tracer, "models.build_problem", models.build_problem)),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
