"""Spans and counters for the traced benchmark run.

Every wrapper is installed from this file, on the module attribute or
class attribute through which invsq looks the layer up, and removed
again when the traced pass ends; the untraced run installs nothing.
A span records (name, start, end, parent, counts); spans are held in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import time
from functools import wraps

import numpy as np

# name of each layer metric -> (unit, better); the order is the report order
LAYER_METRICS = {
    "classical.transfer_apply.calls": ("count", "lower"),
    "classical.transfer_apply.self_s": ("s", "lower"),
    "classical.eigen.calls": ("count", "lower"),
    "classical.eigen.iterations": ("count", "lower"),
    "classical.eigen.self_s": ("s", "lower"),
    "classical.fk.samples": ("count", "higher"),
    "classical.fk.self_s": ("s", "lower"),
    "classical.fk.samples_per_s": ("1/s", "higher"),
    "classical.fk.rel_stderr": ("ratio", "lower"),
    "mc_time_to_1pct_s": ("s", "lower"),
    "spectrum.interior_logderiv.calls": ("count", "lower"),
    "spectrum.interior_logderiv.self_s": ("s", "lower"),
    "spectrum.interior_logderiv.rhs_evals_per_call": ("evals/call", "lower"),
    "spectrum.bound_state.calls": ("count", "lower"),
    "spectrum.bound_state.self_s": ("s", "lower"),
    "numerics.rk45.calls": ("count", "lower"),
    "numerics.rk45.rhs_evals": ("count", "lower"),
    "numerics.rk45.self_s": ("s", "lower"),
    "numerics.brent.calls": ("count", "lower"),
    "numerics.brent.fevals": ("count", "lower"),
    "numerics.brent.self_s": ("s", "lower"),
    "numerics.quad_gk.calls": ("count", "lower"),
    "numerics.quad_gk.evals": ("count", "lower"),
    "numerics.quad_gk.unconverged": ("count", "lower"),
    "numerics.quad_gk.self_s": ("s", "lower"),
    "core.profile.calls": ("count", "lower"),
    "core.profile.self_s": ("s", "lower"),
    "specfun.calls": ("count", "lower"),
    "specfun.points": ("count", "lower"),
    "specfun.self_s": ("s", "lower"),
    "propagator.quadrature.calls": ("count", "lower"),
    "propagator.quadrature.self_s": ("s", "lower"),
    "scattering.self_s": ("s", "lower"),
    "rgflow.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Regulated Monte Carlo target for mc_time_to_1pct_s: time x (rel stderr / 1 %)^2.
MC_TARGET_REL = 0.01


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None

    def add(self, key, value):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unconverged_callers: set[str] = set()
        self._local = threading.local()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        st = self._stack()
        return st[-1] if st else None

    def enter(self, name):
        st = self._stack()
        sp = Span(name, 0.0, st[-1] if st else None)
        self.spans.append(sp)
        st.append(sp)
        sp.start = time.perf_counter()
        return sp

    def exit(self, sp):
        sp.end = time.perf_counter()
        self._stack().pop()


def write_spans(spans, path):
    """Write every span as one JSON line (gzip), its parent as a line index."""
    index = {id(s): i for i, s in enumerate(spans)}
    with gzip.open(path, "wt") as fh:
        for s in spans:
            rec = {"name": s.name, "start": s.start, "end": s.end,
                   "parent": index.get(id(s.parent), -1)}
            if s.counts:
                rec["counts"] = s.counts
            fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Span duration minus the part of its interval that its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[id(s)] = (s.end - s.start) - covered
    return out


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _counted(f):
    """f with an evaluation counter: (wrapped, counter list)."""
    n = [0]

    def g(*args):
        n[0] += 1
        return f(*args)

    return g, n


def _wrap_plain(tracer, name, orig):
    @wraps(orig)
    def w(*args, **kw):
        sp = tracer.enter(name)
        try:
            return orig(*args, **kw)
        finally:
            tracer.exit(sp)
    return w


def _wrap_solver(tracer, name, key, orig):
    """Span around a solver whose first argument is the function it evaluates;
    the evaluations are counted under key."""
    @wraps(orig)
    def w(f, *args, **kw):
        g, n = _counted(f)
        sp = tracer.enter(name)
        try:
            return orig(g, *args, **kw)
        finally:
            tracer.exit(sp)
            sp.add(key, n[0])
    return w


def _wrap_quad(tracer, orig):
    @wraps(orig)
    def w(*args, **kw):
        sp = tracer.enter("numerics.quad_gk")
        try:
            res = orig(*args, **kw)
        finally:
            tracer.exit(sp)
        sp.add("evals", res.n_evals)
        if not res.converged:
            sp.add("unconverged", 1)
            caller = sys._getframe(1)
            tracer.unconverged_callers.add(
                f"{caller.f_globals.get('__name__')}.{caller.f_code.co_name}")
        return res
    return w


def _wrap_eigen(tracer, orig):
    @wraps(orig)
    def w(*args, **kw):
        sp = tracer.enter("classical.eigen")
        try:
            lam, iters = orig(*args, **kw)
        finally:
            tracer.exit(sp)
        sp.add("iterations", iters)
        return lam, iters
    return w


def _wrap_fk(tracer, orig):
    @wraps(orig)
    def w(params, regs, spec, mode="regulated", threads=1):
        sp = tracer.enter("classical.fk")
        try:
            out = orig(params, regs, spec, mode, threads)
        finally:
            tracer.exit(sp)
        sp.add("samples", spec.n_samples)
        if mode == "regulated":
            value, err = out[0]
            sp.add("rel_stderr", abs(err / value))
        return out
    return w


def _wrap_specfun(tracer, orig):
    """Records only calls from outside specfun; nested calls pass through."""
    @wraps(orig)
    def w(*args, **kw):
        cur = tracer.current()
        if cur is not None and cur.name == "specfun":
            return orig(*args, **kw)
        sp = tracer.enter("specfun")
        try:
            return orig(*args, **kw)
        finally:
            tracer.exit(sp)
            sp.add("points", int(np.size(args[-1])) if args else 1)
    return w


def _public_functions(mod):
    names = getattr(mod, "__all__", ())
    return [n for n in names
            if callable(getattr(mod, n, None)) and not isinstance(getattr(mod, n), type)]


def install(tracer):
    """Install every wrapper; return (undo callable, set of missing layer names).

    A name a later version renamed or deleted is skipped and its layer
    reported as missing, so the workload still runs.
    """
    from invsq import classical, core, propagator, rgflow, scattering, specfun, spectrum

    patches = []
    missing = set()

    def patch(owner, attr, layer, make):
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            missing.add(layer)
            return
        patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    for mod in (spectrum, propagator):
        patch(mod, "quad_gk", "numerics.quad_gk", lambda o: _wrap_quad(tracer, o))
    for mod in (spectrum, rgflow, scattering):
        patch(mod, "rk45", "numerics.rk45",
              lambda o: _wrap_solver(tracer, "numerics.rk45", "rhs_evals", o))
    for mod in (core, spectrum, rgflow):
        patch(mod, "brent", "numerics.brent",
              lambda o: _wrap_solver(tracer, "numerics.brent", "fevals", o))
    for mod in (spectrum, classical):
        patch(mod, "bound_state", "spectrum.bound_state",
              lambda o: _wrap_plain(tracer, "spectrum.bound_state", o))
    patch(spectrum, "interior_logderiv", "spectrum.interior_logderiv",
          lambda o: _wrap_plain(tracer, "spectrum.interior_logderiv", o))
    patch(classical, "lanczos_lambda_max", "classical.eigen", lambda o: _wrap_eigen(tracer, o))
    patch(classical, "feynman_kac_batch", "classical.fk", lambda o: _wrap_fk(tracer, o))
    patch(getattr(classical, "TransferOperator", None) or object, "apply",
          "classical.transfer_apply",
          lambda o: _wrap_plain(tracer, "classical.transfer_apply", o))
    patch(getattr(core, "Regulator", None) or object, "profile", "core.profile",
          lambda o: _wrap_plain(tracer, "core.profile", o))
    patch(propagator, "propagator_quadrature", "propagator.quadrature",
          lambda o: _wrap_plain(tracer, "propagator.quadrature", o))
    for name in _public_functions(scattering):
        patch(scattering, name, "scattering", lambda o: _wrap_plain(tracer, "scattering", o))
    for name in _public_functions(rgflow):
        patch(rgflow, name, "rgflow", lambda o: _wrap_plain(tracer, "rgflow", o))
    sf_names = [n for n, v in vars(specfun).items()
                if not n.startswith("_") and callable(v) and not isinstance(v, type)
                and getattr(v, "__module__", None) == specfun.__name__]
    if not sf_names:
        missing.add("specfun")
    for name in sf_names:
        patch(specfun, name, "specfun", lambda o: _wrap_specfun(tracer, o))

    def undo():
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)

    return undo, missing


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def layer_metrics(spans, missing=frozenset()):
    """Per-layer metrics from the spans of one pass (trace.overhead_s excluded)."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    interior_rhs = 0
    fk_wall = 0.0
    fk_reg = []
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + own[id(s)]
        if s.counts:
            for k, v in s.counts.items():
                counts[f"{s.name}.{k}"] = counts.get(f"{s.name}.{k}", 0) + v
        if s.name == "numerics.rk45" and s.parent is not None \
                and s.parent.name == "spectrum.interior_logderiv":
            interior_rhs += s.counts.get("rhs_evals", 0) if s.counts else 0
        if s.name == "classical.fk":
            fk_wall += s.end - s.start
            if s.counts and "rel_stderr" in s.counts:
                fk_reg.append((s.end - s.start, s.counts["rel_stderr"]))

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    samples = counts.get("classical.fk.samples", 0)
    n_interior = c("spectrum.interior_logderiv")
    out = {
        "classical.transfer_apply.calls": c("classical.transfer_apply"),
        "classical.transfer_apply.self_s": t("classical.transfer_apply"),
        "classical.eigen.calls": c("classical.eigen"),
        "classical.eigen.iterations": counts.get("classical.eigen.iterations", 0),
        "classical.eigen.self_s": t("classical.eigen"),
        "classical.fk.samples": samples,
        "classical.fk.self_s": t("classical.fk"),
        "classical.fk.samples_per_s": samples / fk_wall if fk_wall > 0 else 0.0,
        "classical.fk.rel_stderr": fk_reg[0][1] if fk_reg else 0.0,
        "mc_time_to_1pct_s": (fk_reg[0][0] * (fk_reg[0][1] / MC_TARGET_REL) ** 2
                              if fk_reg else 0.0),
        "spectrum.interior_logderiv.calls": n_interior,
        "spectrum.interior_logderiv.self_s": t("spectrum.interior_logderiv"),
        "spectrum.interior_logderiv.rhs_evals_per_call":
            interior_rhs / n_interior if n_interior else 0.0,
        "spectrum.bound_state.calls": c("spectrum.bound_state"),
        "spectrum.bound_state.self_s": t("spectrum.bound_state"),
        "numerics.rk45.calls": c("numerics.rk45"),
        "numerics.rk45.rhs_evals": counts.get("numerics.rk45.rhs_evals", 0),
        "numerics.rk45.self_s": t("numerics.rk45"),
        "numerics.brent.calls": c("numerics.brent"),
        "numerics.brent.fevals": counts.get("numerics.brent.fevals", 0),
        "numerics.brent.self_s": t("numerics.brent"),
        "numerics.quad_gk.calls": c("numerics.quad_gk"),
        "numerics.quad_gk.evals": counts.get("numerics.quad_gk.evals", 0),
        "numerics.quad_gk.unconverged": counts.get("numerics.quad_gk.unconverged", 0),
        "numerics.quad_gk.self_s": t("numerics.quad_gk"),
        "core.profile.calls": c("core.profile"),
        "core.profile.self_s": t("core.profile"),
        "specfun.calls": c("specfun"),
        "specfun.points": counts.get("specfun.points", 0),
        "specfun.self_s": t("specfun"),
        "propagator.quadrature.calls": c("propagator.quadrature"),
        "propagator.quadrature.self_s": t("propagator.quadrature"),
        "scattering.self_s": t("scattering"),
        "rgflow.self_s": t("rgflow"),
    }
    # the mc metric depends on the Monte Carlo layer's span alone
    layer_of = {"mc_time_to_1pct_s": "classical.fk"}
    return {k: v for k, v in out.items()
            if layer_of.get(k, k.rsplit(".", 1)[0]) not in missing}
