"""Spans around widthcalc's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span: name, parent span, thread, wall and thread-CPU start
and end, plus a few counts read off the arguments or the result.  Every
module of the package that holds the function under its own name gets the
wrapper, so `from .values import decimal_str` style imports are covered.

Spans are kept in memory for the op in flight and folded into per-layer
totals when the op ends, so memory stays bounded however many ops run.

Two rules make the numbers add up:

* `sweep` computes its rows in `ThreadPoolExecutor` workers, which start
  with an empty span stack.  A span opened on an empty stack is attached
  to the op in flight explicitly, so no row is lost or counted twice.
* Self time is thread CPU time minus the thread CPU time of the children
  that ran on the same thread.  Rows running concurrently therefore do not
  count each other's time, and the op's own self time (argument parsing
  and rendering) is never negative.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

OP = "cli"
EPIGRAPH = "simplex.epigraph"
PROBE = "simplex.probe"
SOLVE = "simplex.solve_lp"
MINIMIZE = "exponent.minimize"


def _rows(args, kwargs, result):
    # solve_lp(c, A_eq, b_eq, A_ub, b_ub)
    A_eq = kwargs.get("A_eq", args[1] if len(args) > 1 else None)
    A_ub = kwargs.get("A_ub", args[3] if len(args) > 3 else None)
    return {"rows": len(A_eq or ()) + len(A_ub or ())}


def _cert_checks(args, kwargs, result):
    _, cert = result
    return {"certs": 0 if cert is None else 1, "checks": 0 if cert is None else len(cert.checked)}


# (module, attribute, span name, counts read off the call)
FUNCTIONS = (
    ("widthcalc.closedform", "classify_regime", "closedform.classify_regime", None),
    ("widthcalc.exponent", "build_objective", "exponent.build_objective",
     lambda a, k, r: {"pieces": len(r.pieces)}),
    ("widthcalc.exponent", "minimize", MINIMIZE, lambda a, k, r: {"unique": int(r.unique)}),
    ("widthcalc._simplex", "solve_lp", SOLVE, _rows),
    ("widthcalc.oracle", "grid_minimize", "oracle.grid_minimize",
     lambda a, k, r: {"points": r.points}),
    ("widthcalc.oracle", "sample_branch", "oracle.sample_branch", None),
    ("widthcalc.oracle", "check_scaling_identities", "oracle.check_scaling_identities",
     lambda a, k, r: {"identity_checks": r.checked}),
    ("widthcalc.oracle", "cross_validate", "oracle.cross_validate", None),
    ("widthcalc.finitedim", "intersection_order", "finitedim.intersection_order", None),
    ("widthcalc.finitedim", "classify_branch", "finitedim.classify_branch", _cert_checks),
    ("widthcalc.values", "decimal_str", "values.decimal", None),
)

# (module, class, method, span name); classmethods are unwrapped and rewrapped.
METHODS = (
    ("widthcalc.finitedim", "LowerBoundCertificate", "verify", "finitedim.certificate_verify"),
    ("widthcalc.values", "PowerProduct", "__lt__", "values.compare"),
    ("widthcalc.values", "PowerProduct", "from_fraction", "values.construct"),
    ("widthcalc.values", "PowerProduct", "from_pow", "values.construct"),
    ("widthcalc.values", "PowerProduct", "decimal", "values.decimal"),
)


class Tracer:
    """Records spans for one op at a time and keeps per-layer totals."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op = None
        self._spans = []
        self._undo = []
        self.ops = 0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    # ------------------------------------------------------------------
    # recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # An empty stack means a pool worker: attach the span to the op.
            parent = stack[-1] if stack else tracer._op
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            w0, c0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1, w1 = thread_time(), perf_counter()
                stack.pop()
                info = counts(args, kwargs, result) if counts and result is not None else None
                tracer._spans.append(
                    (sid, parent, name, threading.get_ident(), w0, w1, c0, c1, info)
                )

        return traced

    def op(self, fn, *args):
        """Run one op under a root span and fold its spans into the totals."""
        sid = next(self._ids)
        self._op = sid
        stack = self._stack()
        stack.append(sid)
        w0, c0 = perf_counter(), thread_time()
        try:
            return fn(*args)
        finally:
            c1, w1 = thread_time(), perf_counter()
            stack.pop()
            self._op = None
            spans, self._spans = self._spans, []
            spans.append((sid, None, OP, threading.get_ident(), w0, w1, c0, c1, None))
            self._fold(spans)

    def _fold(self, spans) -> None:
        self.ops += 1
        thread_of = {s[0]: s[3] for s in spans}
        child_cpu = defaultdict(float)
        solves = defaultdict(list)
        names = {s[0]: s[2] for s in spans}
        for sid, parent, name, thread, w0, w1, c0, c1, info in spans:
            if parent is not None and thread_of.get(parent) == thread:
                child_cpu[parent] += c1 - c0
            if name == SOLVE:
                solves[parent].append((w0, sid))
        # The first solve of each `minimize` is the epigraph LP; the rest
        # are the uniqueness probes of the optimal face.
        epigraph = {
            min(group)[1] for parent, group in solves.items() if names.get(parent) == MINIMIZE
        }
        for sid, parent, name, thread, w0, w1, c0, c1, info in spans:
            if name == SOLVE:
                name = EPIGRAPH if sid in epigraph else PROBE
            self.calls[name] += 1
            self.total_s[name] += c1 - c0
            self.self_s[name] += c1 - c0 - child_cpu[sid]
            for key, value in (info or {}).items():
                self.counts[key] += value

    # ------------------------------------------------------------------
    # installing

    def install(self) -> None:
        """Wrap every traced function and method of the loaded package."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "widthcalc"]
        for mod_name, attr, name, counts in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, None))
            else:
                wrapped = self._wrap(name, raw, None)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # ------------------------------------------------------------------
    # per-layer metrics

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer numbers, per op unless the name says otherwise."""
        n = max(self.ops, 1)
        c, t, s, k = self.calls, self.total_s, self.self_s, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        solves = c[EPIGRAPH] + c[PROBE]
        return {
            "cli.self_s": (s[OP] / n, "s/op"),
            "closedform.classify_regime.calls": (c["closedform.classify_regime"] / n, "calls/op"),
            "closedform.classify_regime.self_s": (s["closedform.classify_regime"] / n, "s/op"),
            "exponent.build_objective.self_s": (s["exponent.build_objective"] / n, "s/op"),
            "exponent.pieces_per_objective": (ratio(k["pieces"], c["exponent.build_objective"]), "pieces"),
            "exponent.minimize.self_s": (s[MINIMIZE] / n, "s/op"),
            "exponent.unique_frac": (ratio(k["unique"], c[MINIMIZE]), "share"),
            "simplex.epigraph.calls": (c[EPIGRAPH] / n, "calls/op"),
            "simplex.epigraph.s": (t[EPIGRAPH] / n, "s/op"),
            "simplex.probe.calls": (c[PROBE] / n, "calls/op"),
            "simplex.probe.s": (t[PROBE] / n, "s/op"),
            "simplex.probes_per_minimize": (ratio(c[PROBE], c[MINIMIZE]), "probes"),
            "simplex.rows_per_solve": (ratio(k["rows"], solves), "rows"),
            "oracle.grid_minimize.calls": (c["oracle.grid_minimize"] / n, "calls/op"),
            "oracle.grid_minimize.s": (t["oracle.grid_minimize"] / n, "s/op"),
            "oracle.lattice_points": (k["points"] / n, "points/op"),
            "oracle.lattice_points_per_s": (ratio(k["points"], t["oracle.grid_minimize"]), "points/s"),
            "oracle.sample_branch.s": (t["oracle.sample_branch"] / n, "s/op"),
            "oracle.check_scaling_identities.s": (t["oracle.check_scaling_identities"] / n, "s/op"),
            "oracle.identity_checks": (k["identity_checks"] / n, "checks/op"),
            "oracle.cross_validate.self_s": (s["oracle.cross_validate"] / n, "s/op"),
            "finitedim.intersection_order.self_s": (s["finitedim.intersection_order"] / n, "s/op"),
            "finitedim.classify_branch.self_s": (s["finitedim.classify_branch"] / n, "s/op"),
            "finitedim.certificate_verify.self_s": (s["finitedim.certificate_verify"] / n, "s/op"),
            "finitedim.checks_per_certificate": (ratio(k["checks"], k["certs"]), "checks"),
            "values.compare.calls": (c["values.compare"] / n, "calls/op"),
            "values.compare.s": (t["values.compare"] / n, "s/op"),
            "values.construct.calls": (c["values.construct"] / n, "calls/op"),
            "values.construct.s": (t["values.construct"] / n, "s/op"),
            "values.decimal.s": (t["values.decimal"] / n, "s/op"),
        }
