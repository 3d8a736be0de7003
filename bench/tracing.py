"""Outside-in tracing of fourierineq for the benchmark's traced run.

The tracer wraps public functions of the package from outside: every
wrapper is rebound both in the defining module (or class) and in every
module that imported the function by name, so ``calderon.star`` and
``extremal.evaluate`` are traced as well as ``rearrange.star`` and
``criteria.evaluate``.  ``uninstall`` puts every original back.

Spans (name, start, end, parent, operation id) are kept in flat arrays in
memory and written out by ``write_spans`` when the run ends.  A span's self
time is its duration minus the time its direct child spans cover.

The three quadrature entry points (``pieces.quad``, ``symfunc.quad`` and the
``scipy.integrate.quad`` that ``criteria.qsharp_tail_finite`` imports
locally) also count calls and integrand evaluations; those counts are exact
and repeat from run to run for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

SPAN, COUNT, QUAD = "span", "count", "quad"

# regime label used in the criteria.evaluate_s.<label> metrics
REGIME_LABEL = {"degenerate-q-infinity": "deg-qinf",
                "degenerate-p-one": "deg-p1",
                "I": "I", "II": "II", "III": "III", "IV": "IV", "V": "V"}


def _evaluate_label(u, v, cfg) -> str:
    from fourierineq.criteria import classify
    return REGIME_LABEL[classify(cfg)]


# (module, attribute path, metric stem, how, span labeller)
TARGETS = [
    ("fourierineq.symfunc", "quad", "symfunc.quad", QUAD, None),
    ("fourierineq.pieces", "quad", "pieces.quad", QUAD, None),
    ("scipy.integrate", "quad", "criteria.quad", QUAD, None),
    ("fourierineq.symfunc", "SymFunc.tabulated", "symfunc.tabulated",
     SPAN, None),
    ("fourierineq.symfunc", "SymFunc.antiderivative", "symfunc.antiderivative",
     SPAN, None),
    ("fourierineq.symfunc", "SymFunc.tail_integral", "symfunc.tail_integral",
     SPAN, None),
    ("fourierineq.symfunc", "SymFunc.integral", "symfunc.integral",
     SPAN, None),
    ("fourierineq.symfunc", "SymFunc.sup", "symfunc.sup", SPAN, None),
    ("fourierineq.symfunc", "SymFunc.running_sup_from", "symfunc.running_sup",
     SPAN, None),
    ("fourierineq.criteria", "evaluate", "criteria.evaluate", SPAN,
     _evaluate_label),
    ("fourierineq.criteria", "C3", "criteria.C3", SPAN, None),
    ("fourierineq.criteria", "C4", "criteria.C4", SPAN, None),
    ("fourierineq.criteria", "C6", "criteria.C6", SPAN, None),
    ("fourierineq.criteria", "C7", "criteria.C7", SPAN, None),
    ("fourierineq.criteria", "C9", "criteria.C9", SPAN, None),
    ("fourierineq.criteria", "qsharp_tail_finite", "criteria.qsharp_tail",
     SPAN, None),
    ("fourierineq.criteria", "degenerate_constant", "criteria.degenerate",
     SPAN, None),
    ("fourierineq.rearrange", "star", "rearrange.star", SPAN, None),
    ("fourierineq.rearrange", "circ_profile", "rearrange.circ_profile",
     SPAN, None),
    ("fourierineq.rearrange", "lower_star", "rearrange.lower_star",
     SPAN, None),
    ("fourierineq.pieces", "StepFunction.from_cells", "pieces.from_cells",
     SPAN, None),
    ("fourierineq.pieces", "StepFunction.pow_compose", "pieces.pow_compose",
     SPAN, None),
    ("fourierineq.pieces", "StepFunction.integrate", "pieces.integrate",
     SPAN, None),
    ("fourierineq.calderon", "dominates", "calderon.dominates", SPAN, None),
    ("fourierineq.calderon", "verify_joint_type", "calderon.verify_joint_type",
     SPAN, None),
    ("fourierineq.extremal", "step_profile", "extremal.step_profile",
     SPAN, None),
    ("fourierineq.extremal", "dft", "extremal.dft", SPAN, None),
    ("fourierineq.extremal", "ratio", "extremal.ratio", SPAN, None),
    ("fourierineq.extremal", "lower_bound_translates", "extremal.translates",
     SPAN, None),
    ("fourierineq.extremal", "lower_bound_annuli", "extremal.annuli",
     SPAN, None),
    ("fourierineq.weights", "WeightSpec.evaluate", "weights.evaluate",
     COUNT, None),
    ("fourierineq.weights", "parse_weight", "weights.parse_weight",
     SPAN, None),
    ("fourierineq.hardy", "hardy_K", "hardy.hardy_K", SPAN, None),
    ("fourierineq.hardy", "brute_force_K", "hardy.brute_force_K", SPAN, None),
    ("fourierineq.norms", "optimal_Y_norm", "norms.optimal_Y", SPAN, None),
    ("fourierineq.norms", "morrey_optimal_norm", "norms.morrey", SPAN, None),
    ("fourierineq.norms", "expL_pair", "norms.expL", SPAN, None),
]

# span stems whose call count is reported beside their self time
CALL_COUNTED = ("rearrange.star", "extremal.dft", "extremal.ratio")


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order
    (``cli.import_s`` and ``trace_overhead`` are added by the runner)."""
    out: list[str] = []
    for _mod, _attr, stem, how, labeller in TARGETS:
        module = stem.split(".")[0]
        if how == QUAD:
            out += [f"{stem}_calls", f"{module}.integrand_evals", f"{stem}_s"]
        elif how == COUNT:
            out.append(f"{stem}_calls")
        elif labeller is _evaluate_label:
            out += [f"{stem}_s.{lab}" for lab in REGIME_LABEL.values()]
        else:
            out.append(f"{stem}_s")
            if stem in CALL_COUNTED:
                out.append(f"{stem}_calls")
    return out


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # targets the package no longer has

    # -- span store ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrappers -----------------------------------------------------------
    def _spanned(self, stem: str, fn, labeller):
        if labeller is None:
            nid = self._name_id(stem)

            def wrapper(*args, **kwargs):
                idx = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
        else:
            def wrapper(*args, **kwargs):
                name = f"{stem}.{labeller(*args, **kwargs)}"
                return self.record(name, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def _counted(self, stem: str, fn):
        counts, key = self.counts, f"{stem}_calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def _quad(self, stem: str, fn):
        counts = self.counts
        calls = f"{stem}_calls"
        evals = f"{stem.split('.')[0]}.integrand_evals"
        nid = self._name_id(stem)

        def wrapper(func, *args, **kwargs):
            counts[calls] += 1

            def integrand(*x):
                counts[evals] += 1
                return func(*x)
            idx = self._open(nid)
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                self._close(idx)
        return functools.wraps(fn)(wrapper)

    # -- installation ---------------------------------------------------------
    def _rebind(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self, extra_modules=()) -> None:
        """Wrap every target; rebind package-level names and the names in
        extra_modules that refer to a wrapped function.  A target the
        package no longer defines is recorded in missing and its metrics
        read 0."""
        for modname, attr, stem, how, labeller in TARGETS:
            *path, name = attr.split(".")
            try:
                mod = owner = importlib.import_module(modname)
                for part in path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[name]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(f"{modname}:{attr}")
                continue
            if path:  # a method or staticmethod on a class
                static = isinstance(fn, staticmethod)
                new = self._wrap(how, stem, fn.__func__ if static else fn,
                                 labeller)
                self._rebind(owner, name, staticmethod(new) if static else new)
                continue
            new = self._wrap(how, stem, fn, labeller)
            if not modname.startswith("fourierineq"):
                # scipy.integrate.quad: the package's own quad wrappers hold
                # the same object under another name and must stay as they
                # are, or their calls would be counted twice
                self._rebind(mod, name, new)
                continue
            holders = [m for key, m in list(sys.modules.items())
                       if key.split(".")[0] == "fourierineq"]
            for holder in holders + list(extra_modules):
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._rebind(holder, key, new)

    def _wrap(self, how: str, stem: str, fn, labeller):
        if how == QUAD:
            return self._quad(stem, fn)
        if how == COUNT:
            return self._counted(stem, fn)
        return self._spanned(stem, fn, labeller)

    def uninstall(self) -> None:
        """Put back every original binding, last patch first."""
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    # -- reduction ------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def layer_totals(self, ops=None) -> dict[str, float]:
        """Per-layer metrics over the spans of the given operation ids (all
        spans when ops is None): ``<stem>_s`` is summed self time, except
        ``criteria.evaluate_s.<regime>``, which is summed wall time of the
        evaluate calls of that regime; ``<stem>_calls`` counts spans."""
        selected = set(ops) if ops is not None else None
        selft = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            if selected is not None and self.op[i] not in selected:
                continue
            stem = self.names[nid]
            if stem.startswith("criteria.evaluate."):
                regime = stem.rsplit(".", 1)[1]
                out[f"criteria.evaluate_s.{regime}"] += \
                    self.end[i] - self.start[i]
                continue
            out[f"{stem}_s"] += selft[i]
            if stem in CALL_COUNTED:
                out[f"{stem}_calls"] += 1
        return dict(out)

    def write_spans(self, path: str) -> None:
        """Write all spans as CSV rows: op,name,start,end,parent."""
        with open(path, "w") as fh:
            fh.write("op,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]}\n")
