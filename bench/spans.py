"""In-memory span tracer that wraps hexlat's public functions from outside.

The library has no tracing hooks of its own, so the benchmark replaces each
public function listed in LAYERS by a wrapper, in its defining module and in
every loaded module that re-binds the same object (``hexlat.energy`` binds
``jacobi_theta``, ``hexlat.minimize`` binds ``w_b`` and scipy's optimizers,
``hexlat.cli`` binds ``run_checks``, ...).  A span records name, start, end,
parent and operation id.  Self time is a span's duration minus the part of
it that its child spans cover.

Spans are aggregated per name as they close, so memory stays bounded on
workloads that make millions of calls; the complete span records of the
first KEEP_OPS operations are kept as well and written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from time import perf_counter_ns

#: Layer -> (defining module, public names).  Order is the call-stack order.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "theta1d": ("hexlat.theta1d", ("jacobi_theta", "jacobi_theta_partial", "mu", "nu", "theta_envelope")),
    "energy": ("hexlat.energy", (
        "theta_lattice", "w_b", "w_b_via_theta_derivative", "dx_w", "dx_w_double_sum", "dy_w",
        "theta_difference", "theta_difference_via_w_integral", "lattice_energy",
        "laplace_energy", "closed_form_energy",
    )),
    "quadrature": ("hexlat.quadrature", ("integrate", "gauss_panel")),
    "moduli": ("hexlat.moduli", ("lattice_norms", "reduce_to_fundamental", "apply_word")),
    "minimize": ("hexlat.minimize", ("minimize_w", "minimize_theta_difference", "minimize_generic", "phase_scan")),
    "verify": ("hexlat.verify", ("run_checks",)),
}

#: scipy optimizers hexlat.minimize calls; their self time is minimize.optimizer_s.
OPTIMIZER_NAMES = ("minimize", "minimize_scalar")

MODULES = tuple(LAYERS) + ("cli",)

#: Complete span records are kept for the first KEEP_OPS operations, up to MAX_KEPT.
KEEP_OPS = 20
MAX_KEPT = 20000

# Calls counted inside a span of the key name, as (counter, callee names).
_NESTED = {
    "integrate": ("quadrature.panels_computed", ("gauss_panel",)),
    "laplace_energy": ("energy.laplace_energy.theta_calls", ("theta_lattice", "w_b")),
    **{name: ("minimize.energy_evals", ("w_b", "theta_difference", "closed_form_energy"))
       for name in ("minimize_w", "minimize_theta_difference", "minimize_generic")},
}


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class Tracer:
    """Collects spans from wrapped functions while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.layer_of: dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self._main_stack: list | None = None
        self._ids = itertools.count()
        self.kept: list[tuple] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "agg": {}, "count": {}}
            self._local.st = st
            with self._lock:
                self._per_thread.append(st)
        return st

    def start(self) -> None:
        """Activate tracing; the calling thread owns the operations."""
        self._main_stack = self._state()["stack"]
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- spans --------------------------------------------------------------

    def enter(self, name: str):
        st = self._state()
        stack = st["stack"]
        cross = False
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]  # pool thread started by a traced call
            cross = True
        else:
            parent = None
        sid = next(self._ids)
        nested = _NESTED.get(name)
        snap = sum(st["count"].get(n, 0) for n in nested[1]) if nested else 0
        # [name, id, parent, t0, same-thread child ns, cross-thread child intervals, cross, op, snap]
        span = [name, sid, parent, 0, 0, None, cross, self.op_id, snap]
        stack.append(span)
        span[3] = perf_counter_ns()
        return span

    def exit(self, span) -> None:
        t1 = perf_counter_ns()
        st = self._state()
        st["stack"].pop()
        name, sid, parent, t0 = span[0], span[1], span[2], span[3]
        dur = t1 - t0
        covered = span[4] + (_union_ns(span[5]) if span[5] else 0)
        agg = st["agg"].get(name)
        if agg is None:
            agg = st["agg"][name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += max(dur - covered, 0)
        st["count"][name] = st["count"].get(name, 0) + 1
        nested = _NESTED.get(name)
        if nested:
            now = sum(st["count"].get(n, 0) for n in nested[1])
            self.add(nested[0], now - span[8])
        if parent is not None:
            if span[6]:
                with self._lock:
                    if parent[5] is None:
                        parent[5] = []
                    parent[5].append((t0, t1))
            else:
                parent[4] += dur
        if 0 <= span[7] < KEEP_OPS and len(self.kept) < MAX_KEPT:
            pid = parent[1] if parent is not None else None
            self.kept.append((span[7], name, self.layer_of.get(name, "bench"), t0, t1, sid, pid,
                              threading.get_ident()))

    def add(self, counter: str, value: float) -> None:
        cnt = self._state()["count"]
        cnt[counter] = cnt.get(counter, 0) + value

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[dict[str, list[int]], dict[str, float]]:
        """(name -> [calls, total_ns, self_ns], counter -> value) over all threads."""
        agg: dict[str, list[int]] = {}
        counts: dict[str, float] = {}
        with self._lock:
            states = list(self._per_thread)
        for st in states:
            for name, (c, tot, own) in st["agg"].items():
                a = agg.setdefault(name, [0, 0, 0])
                a[0] += c
                a[1] += tot
                a[2] += own
            for k, v in st["count"].items():
                counts[k] = counts.get(k, 0) + v
        return agg, counts

    def layer_self_s(self) -> dict[str, float]:
        agg, _ = self.totals()
        out = {m: 0.0 for m in MODULES}
        for name, (_c, _t, own) in agg.items():
            layer = self.layer_of.get(name)
            if layer in out:
                out[layer] += own / 1e9
        return out

    def write(self, path: str, extra: dict) -> None:
        agg, counts = self.totals()
        doc = dict(extra)
        doc["by_name"] = agg  # name -> [calls, total ns, self ns]
        doc["layer_of"] = self.layer_of
        doc["counters"] = counts
        doc["spans"] = [dict(zip(("op", "name", "layer", "start_ns", "end_ns", "id", "parent", "thread"), s))
                        for s in self.kept]
        with open(path, "w") as fh:
            json.dump(doc, fh)

    # -- wrapping -----------------------------------------------------------

    def root(self, name: str, fn, *args, **kwargs):
        """Call fn as a span of its own (used for whole operations)."""
        if not self.active:
            return fn(*args, **kwargs)
        span = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(span)

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        post = _POST.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            if post is not None:
                post(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self.layer_of[name] = layer
        return wrapper

    def install(self) -> None:
        """Wrap every public name in LAYERS wherever a loaded module binds it."""
        import importlib

        targets: list[tuple[object, str, str]] = []  # (function, span name, layer)
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            for name in names:
                targets.append((getattr(mod, name), name, layer))
        # hexlat.minimize calls scipy through its own module-level names.
        import scipy.optimize

        for name in OPTIMIZER_NAMES:
            targets.append((getattr(scipy.optimize, name), "scipy." + name, "minimize"))
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "hexlat" or k.startswith("hexlat.") or k == "scipy.optimize")]
        for fn, name, layer in targets:
            wrapper = self._wrap(name, layer, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._originals.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()


def _post_lattice_norms(tracer: Tracer, result) -> None:
    tracer.add("moduli.lattice_norms.points", len(result))


def _post_run_checks(tracer: Tracer, result) -> None:
    tracer.add("verify.reports", len(result))


_POST = {"lattice_norms": _post_lattice_norms, "run_checks": _post_run_checks}
