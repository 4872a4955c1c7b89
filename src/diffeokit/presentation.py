"""Finite presentations of the category of pointed plot germs at a point.

A presentation lists charts (Euclidean domains of pointed plots) and
pointed polynomial transition germs between them, optionally together with
a pointed embedding of every chart into a common ambient space.  Identity
arrows are implicit on every chart.

The tool computes exactly over the presented fragment; answers are answers
about the fragment.  Whether a fragment is cofinal in the full germ
category is the user's responsibility and in general undecidable from
finite data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations_with_replacement

from .symcalc import PolyMap, compose_maps

__all__ = [
    "Arrow",
    "Ambient",
    "GermPresentation",
    "PresentedMap",
    "ValidationReport",
    "ClosureResult",
    "FilterednessReport",
    "validate_presentation",
    "composition_closure",
    "filteredness",
    "validate_presented_map",
]


@dataclass(frozen=True)
class Arrow:
    """A named pointed germ between two charts."""

    name: str
    src: str
    dst: str
    germ: PolyMap


@dataclass(frozen=True)
class Ambient:
    """A pointed embedding of every chart into R^dim."""

    dim: int
    embeddings: dict[str, PolyMap]


class GermPresentation:
    """Charts plus pointed transition germs, the finite input to all fibre
    computations.

    ``wedge_type`` marks presentations whose charts meet only at the marked
    point; the section checker is defined only for those.
    """

    def __init__(
        self,
        name: str,
        charts: list[tuple[str, int]],
        arrows: list[Arrow],
        ambient: Ambient | None = None,
        wedge_type: bool = False,
    ):
        self.name = name
        self.charts = [(str(cid), int(dim)) for cid, dim in charts]
        self.arrows = list(arrows)
        self.ambient = ambient
        self.wedge_type = bool(wedge_type)
        self._index = {cid: i for i, (cid, _) in enumerate(self.charts)}

    @property
    def chart_ids(self) -> list[str]:
        return [cid for cid, _ in self.charts]

    def has_chart(self, cid: str) -> bool:
        return cid in self._index

    def chart_dim(self, cid: str) -> int:
        return self.charts[self.chart_index(cid)][1]

    def chart_index(self, cid: str) -> int:
        try:
            return self._index[cid]
        except KeyError:
            raise ValueError(f"unknown chart {cid!r} in space {self.name!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, GermPresentation):
            return NotImplemented
        return (
            self.name == other.name
            and self.charts == other.charts
            and self.arrows == other.arrows
            and self.ambient == other.ambient
            and self.wedge_type == other.wedge_type
        )

    def __repr__(self) -> str:
        return (
            f"GermPresentation({self.name!r}, charts={self.charts}, "
            f"arrows={len(self.arrows)}, ambient={'yes' if self.ambient else 'no'})"
        )


@dataclass
class ValidationReport:
    ok: bool
    issues: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def validate_presentation(p: GermPresentation) -> ValidationReport:
    """Check every structural invariant, itemizing each violation.

    Violated polynomial identities are reported with the exact residual.
    """
    issues: list[str] = []

    seen = set()
    for cid, dim in p.charts:
        if cid in seen:
            issues.append(f"duplicate chart id {cid!r}")
        seen.add(cid)
        if dim < 0:
            issues.append(f"chart {cid!r} has negative dimension {dim}")

    seen_arrows = set()
    shaped: list[Arrow] = []  # arrows between known charts, of the right shape
    for a in p.arrows:
        if a.name in seen_arrows:
            issues.append(f"duplicate arrow id {a.name!r}")
        seen_arrows.add(a.name)
        if not p.has_chart(a.src):
            issues.append(f"arrow {a.name!r} has unknown source chart {a.src!r}")
            continue
        if not p.has_chart(a.dst):
            issues.append(f"arrow {a.name!r} has unknown target chart {a.dst!r}")
            continue
        src_dim = p.chart_dim(a.src)
        dst_dim = p.chart_dim(a.dst)
        if a.germ.source_dim != src_dim or a.germ.target_dim != dst_dim:
            issues.append(
                f"arrow {a.name!r}: germ has shape R^{a.germ.source_dim} -> "
                f"R^{a.germ.target_dim}, chart dimensions require R^{src_dim} -> R^{dst_dim}"
            )
            continue
        if not a.germ.is_pointed:
            issues.append(f"arrow {a.name!r}: germ is not pointed")
        shaped.append(a)

    if p.ambient is not None:
        amb = p.ambient
        if amb.dim < 0:
            issues.append(f"ambient dimension {amb.dim} is negative")
        # chart id -> its embedding if that has the right shape, else None;
        # a repeated id keeps its last dimension, as chart_dim does
        placed: dict[str, PolyMap | None] = {}
        for cid, dim in p.charts:
            emb = placed[cid] = amb.embeddings.get(cid)
            if emb is None:
                issues.append(f"chart {cid!r} has no ambient embedding")
                continue
            if emb.source_dim != dim or emb.target_dim != amb.dim:
                issues.append(
                    f"embedding of chart {cid!r} has shape R^{emb.source_dim} -> "
                    f"R^{emb.target_dim}, expected R^{dim} -> R^{amb.dim}"
                )
                placed[cid] = None
                continue
            if not emb.is_pointed:
                issues.append(f"embedding of chart {cid!r} is not pointed")
        for a in shaped:
            src_emb, dst_emb = placed[a.src], placed[a.dst]
            if src_emb is None or dst_emb is None:
                continue
            via_arrow = compose_maps(dst_emb, a.germ)
            for c, (lhs, rhs) in enumerate(zip(via_arrow.components, src_emb.components)):
                if lhs != rhs:
                    issues.append(
                        f"ambient incompatibility on arrow {a.name!r}, "
                        f"coordinate {c + 1}: residual {lhs - rhs}"
                    )

    return ValidationReport(not issues, issues)


def require_valid(p: GermPresentation) -> None:
    report = validate_presentation(p)
    if not report.ok:
        raise ValueError(
            f"invalid presentation {p.name!r}: " + "; ".join(report.issues)
        )


@dataclass
class ClosureResult:
    arrows: list[Arrow]
    closed: bool


def _identity_arrows(p: GermPresentation) -> list[Arrow]:
    return [
        Arrow(f"id_{cid}", cid, cid, PolyMap.identity(dim)) for cid, dim in p.charts
    ]


def composition_closure(p: GermPresentation, depth: int) -> ClosureResult:
    """Saturate the arrow set under composition, up to word length ``depth``.

    Words are built from the presented arrows; identities count as the
    empty word.  Arrows are deduplicated by exact polynomial equality of
    their germs.  Each round composes the generators with the frontier
    only, the arrows the previous round added: every composite with an
    older arrow was formed in an earlier round.  ``closed`` reports whether
    a fixed point was reached within the bound; the closure stops at the
    first composite longer than ``depth`` and returns the arrows up to it.
    """
    if depth < 1:
        raise ValueError(f"closure depth must be >= 1, got {depth}")
    require_valid(p)

    arrows: dict[tuple[str, str, PolyMap], Arrow] = {}
    for a in _identity_arrows(p) + p.arrows:
        arrows.setdefault((a.src, a.dst, a.germ), a)

    new = list(arrows.values())
    word_length = 1
    while new:
        frontier, new = new, []
        for g in p.arrows:
            for w in frontier:
                if w.dst != g.src:
                    continue
                germ = compose_maps(g.germ, w.germ)
                key = (w.src, g.dst, germ)
                # the same composite can arise from several pairs; the first names it
                if key in arrows:
                    continue
                if word_length == depth:
                    return ClosureResult(list(arrows.values()), False)
                arrows[key] = Arrow(f"{g.name}.{w.name}", w.src, g.dst, germ)
                new.append(arrows[key])
        word_length += 1
    return ClosureResult(list(arrows.values()), True)


@dataclass
class FilterednessReport:
    weakly_filtered: str  # "yes" | "no" | "unknown"
    filtered: str  # "yes" | "no" | "unknown"
    closure_reached: bool
    arrow_count: int


def filteredness(p: GermPresentation, depth: int) -> FilterednessReport:
    """Decide (weak) filteredness within the closed arrow set.

    Weak filteredness asks for a common receiving chart for every pair of
    charts; filteredness additionally asks every parallel pair of arrows to
    be coequalized by some arrow.  When the closure is not reached within
    ``depth`` both verdicts are "unknown": a non-closing arrow monoid is a
    legitimate input, not an error.
    """
    closure = composition_closure(p, depth)
    if not closure.closed:
        return FilterednessReport("unknown", "unknown", False, len(closure.arrows))

    arrows = closure.arrows
    targets_from: dict[str, set[str]] = {cid: set() for cid in p.chart_ids}
    by_source: dict[str, list[int]] = {cid: [] for cid in p.chart_ids}
    parallel: dict[tuple[str, str], list[int]] = {}
    for i, a in enumerate(arrows):
        targets_from[a.src].add(a.dst)
        by_source[a.src].append(i)
        parallel.setdefault((a.src, a.dst), []).append(i)

    # weakly filtered: every two charts, a chart with itself included, share a target
    if not all(ti & tj for ti, tj in combinations_with_replacement(targets_from.values(), 2)):
        return FilterednessReport("no", "no", True, len(arrows))

    @cache
    def after(h: int, f: int) -> PolyMap:
        """h after f for arrow indices (h, f), each composed at most once per call."""
        return compose_maps(arrows[h].germ, arrows[f].germ)

    # closure arrows are distinct, so parallel arrows have different germs
    filtered = all(
        any(after(h, f) == after(h, g) for h in by_source[arrows[f].dst])
        for group in parallel.values()
        for k, f in enumerate(group)
        for g in group[k + 1 :]
    )

    return FilterednessReport("yes", "yes" if filtered else "no", True, len(arrows))


class PresentedMap:
    """A map of presentations: chart assignments with pointed factorizations.

    Each source chart is sent to a target chart through a pointed germ, and
    every source arrow must commute with the assignments through some
    target arrow (identities included), exactly.
    """

    def __init__(
        self,
        source: GermPresentation,
        target: GermPresentation,
        assignments: dict[str, tuple[str, PolyMap]],
    ):
        self.source = source
        self.target = target
        self.assignments = dict(assignments)

    @classmethod
    def identity(cls, p: GermPresentation) -> "PresentedMap":
        return cls(
            p, p, {cid: (cid, PolyMap.identity(dim)) for cid, dim in p.charts}
        )


def validate_presented_map(m: PresentedMap) -> ValidationReport:
    issues: list[str] = []
    src_report = validate_presentation(m.source)
    if not src_report.ok:
        issues.append(f"source presentation invalid: {'; '.join(src_report.issues)}")
    dst_report = validate_presentation(m.target)
    if not dst_report.ok:
        issues.append(f"target presentation invalid: {'; '.join(dst_report.issues)}")
    if issues:
        return ValidationReport(False, issues)

    for cid, dim in m.source.charts:
        if cid not in m.assignments:
            issues.append(f"source chart {cid!r} has no assignment")
            continue
        tchart, germ = m.assignments[cid]
        if not m.target.has_chart(tchart):
            issues.append(f"chart {cid!r} is sent to unknown target chart {tchart!r}")
            continue
        if germ.source_dim != dim or germ.target_dim != m.target.chart_dim(tchart):
            issues.append(
                f"assignment of chart {cid!r} has shape R^{germ.source_dim} -> "
                f"R^{germ.target_dim}, expected R^{dim} -> R^{m.target.chart_dim(tchart)}"
            )
            continue
        if not germ.is_pointed:
            issues.append(f"assignment of chart {cid!r} is not pointed")
    if issues:
        return ValidationReport(False, issues)

    for a in m.source.arrows:
        ti, phi_i = m.assignments[a.src]
        tj, phi_j = m.assignments[a.dst]
        lhs = compose_maps(phi_j, a.germ)
        # the identity of ti comes first, and its composite is phi_i itself
        matched = (ti == tj and lhs == phi_i) or any(
            h.src == ti and h.dst == tj and lhs == compose_maps(h.germ, phi_i)
            for h in m.target.arrows
        )
        if not matched:
            issues.append(
                f"arrow {a.name!r} does not commute with the chart assignments "
                f"through any target arrow {ti!r} -> {tj!r}"
            )

    return ValidationReport(not issues, issues)


def require_valid_map(m: PresentedMap) -> None:
    report = validate_presented_map(m)
    if not report.ok:
        raise ValueError("invalid presented map: " + "; ".join(report.issues))
