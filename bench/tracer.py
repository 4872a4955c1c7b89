"""Span tracer for the traced benchmark run.

Wrappers go around the public functions of each ``diffeokit`` module at
every place a name is bound, because ``cli``, ``forms`` and ``tangent`` bind
functions with ``from .x import y``.  Each call records a span (operation,
span id, parent id, name, start, end) in memory; two hot inner calls,
``RatMat.__init__`` and ``RatMat.det``, are only counted.  Per-layer numbers
use self times: a span's duration minus the time covered by its children.

Work the tracer does to measure sizes (nonzeros of a relation matrix, zero
minors) runs in a ``bench.inspect`` span, so it is not billed to a layer.
The self time of the operation's root span ``bench.op`` is the part of the
operation that no layer covers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> functions that record it, as (module, dotted attribute)
SPANS = {
    "linalg.quotient": [("diffeokit.linalg", "QuotientPresentation.from_relation_span")],
    "linalg.matmul": [("diffeokit.linalg", "RatMat.__matmul__")],
    "linalg.rank": [("diffeokit.linalg", "RatMat.rank")],
    "linalg.kernel": [("diffeokit.linalg", "kernel_basis")],
    "linalg.solve": [("diffeokit.linalg", "solve_exact")],
    "multilinear.exterior_power": [("diffeokit.multilinear", "exterior_power_map")],
    "symcalc.compose": [("diffeokit.symcalc", "compose_maps")],
    "symcalc.jacobian": [("diffeokit.symcalc", "jacobian_at_zero")],
    "symcalc.pullback": [("diffeokit.symcalc", "pullback_form")],
    "presentation.validate": [
        ("diffeokit.presentation", "validate_presentation"),
        ("diffeokit.presentation", "validate_presented_map"),
    ],
    "presentation.closure": [("diffeokit.presentation", "composition_closure")],
    "presentation.scan": [("diffeokit.presentation", "filteredness")],
    "tangent.fibre_functor": [("diffeokit.tangent", "apply_fibre_functor")],
    "tangent.colimit": [("diffeokit.tangent", "vect_colimit")],
    "tangent.rho": [("diffeokit.tangent", "rho_map")],
    "tangent.pushforward": [("diffeokit.tangent", "pushforward_map")],
    "forms.check": [("diffeokit.forms", "check_form_compatibility")],
    "forms.eval": [
        ("diffeokit.forms", "form_at_point"),
        ("diffeokit.forms", "tilde_form_at_point"),
    ],
    "forms.section": [("diffeokit.forms", "check_section")],
    "textio.parse": [
        ("diffeokit.textio", "parse_presentation"),
        ("diffeokit.textio", "parse_sections"),
    ],
    "catalog.build": [
        ("diffeokit.catalog", "build_catalog_space"),
        ("diffeokit.catalog", "ambient_inclusion"),
    ],
    "cli.handler": [("diffeokit.cli", "run_command")],
}

COUNTED = {
    "linalg.ratmat_new": ("diffeokit.linalg", "RatMat.__init__"),
    "linalg.det": ("diffeokit.linalg", "RatMat.det"),
}


def _inspect_quotient(counts, args, result):
    _cls, ambient_dim, relations = args[:3]
    counts["linalg.relation_entries"] += relations.rows * relations.cols
    counts["linalg.relation_nonzeros"] += sum(1 for x in relations.data if x)
    counts["linalg.relation_columns"] += relations.cols
    counts["linalg.relation_rank"] += ambient_dim - result.quotient_dim


def _inspect_exterior_power(counts, args, result):
    if args[1] >= 2:
        counts["multilinear.minors"] += result.rows * result.cols
        counts["multilinear.zero_minors"] += sum(1 for x in result.data if not x)


def _inspect_closure(counts, args, result):
    p = args[0]
    counts["presentation.closure_new_arrows"] += max(
        0, len(result.arrows) - len(p.charts) - len(p.arrows)
    )


def _inspect_parse(counts, args, result):
    counts["textio.bytes_parsed"] += len(args[0].encode("utf-8"))


def _inspect_colimit(counts, args, result, seen):
    d = args[0]
    seen.add((tuple(d.objects), tuple((s, t, tuple(m.data)) for s, t, m in d.arrows)))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, id, parent, name, start, end]
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.diagrams: set = set()
        self.op = -1
        self.bindings: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [self.op, len(self.spans), parent[1] if parent else None, name, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec)
        if parent is not None:
            self.counts[f"calls_under.{parent[3]}.{name}"] += 1
        self.counts[f"calls.{name}"] += 1
        rec[4] = time.perf_counter()
        return rec

    def _leave(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name: str, fn, inspect=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(rec)
            if inspect is not None:
                probe = tracer._enter("bench.inspect")
                try:
                    inspect(tracer.counts, args, result)
                finally:
                    tracer._leave(probe)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_op(self, op_id: int, fn):
        """Run ``fn`` as one operation under a root span; returns its result
        and the operation's per-layer self times and counts."""
        self.op = op_id
        self.counts = Counter()
        self.diagrams = set()
        first = len(self.spans)
        root = self._enter("bench.op")
        try:
            result = fn()
        finally:
            self._leave(root)
        return result, self._summarize(first)

    def _summarize(self, first: int) -> dict:
        spans = self.spans[first:]
        child_time: Counter = Counter()
        for op, sid, parent, name, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        for op, sid, parent, name, start, end in spans:
            self_time[name] += (end - start) - child_time[sid]
        counts = dict(self.counts)
        counts["tangent.distinct_diagrams"] = len(self.diagrams)
        wall = spans[0][5] - spans[0][4]
        return {"wall": wall, "self": dict(self_time), "counts": counts}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; ``remove`` puts the originals back."""
        if not self.bindings:
            self.bindings = self._bindings()
        for owner, key, _original, wrapper in self.bindings:
            setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original, _wrapper in self.bindings:
            setattr(owner, key, original)

    def _bindings(self) -> list[tuple]:
        inspectors = {
            "linalg.quotient": _inspect_quotient,
            "multilinear.exterior_power": _inspect_exterior_power,
            "presentation.closure": _inspect_closure,
            "textio.parse": _inspect_parse,
            "tangent.colimit": lambda c, a, r: _inspect_colimit(c, a, r, self.diagrams),
        }
        bindings = []
        for name, targets in SPANS.items():
            for module, attr in targets:
                bindings += _bindings(module, attr,
                                      lambda fn, n=name: self._spanned(n, fn, inspectors.get(n)))
        for name, (module, attr) in COUNTED.items():
            bindings += _bindings(module, attr, lambda fn, n=name: self._counted(n, fn))
        return bindings

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op span parent name start end\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(f"{op} {sid} {'-' if parent is None else parent} {name} {start:.9f} {end:.9f}\n")


def _bindings(module_name: str, attr: str, make) -> list[tuple]:
    """(owner, name, original, wrapper) for a function at its definition and
    at every binding of it in the ``diffeokit`` modules."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            return [(cls, meth, raw, classmethod(make(raw.__func__)))]
        return [(cls, meth, raw, make(raw))]
    original = getattr(module, attr)
    wrapper = make(original)
    return [(mod, key, original, wrapper)
            for name, mod in list(sys.modules.items())
            if name == "diffeokit" or name.startswith("diffeokit.")
            for key, value in list(vars(mod).items()) if value is original]
