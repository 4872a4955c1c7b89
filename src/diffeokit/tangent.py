"""Fibre functors and their colimits: the engine behind every dimension count.

A presentation is turned into a diagram of finite-dimensional vector
spaces by taking, chart by chart, the tangent space at the marked point,
with each arrow's Jacobian taken once; the degree-k diagram is the wedge
of that one, with arrows the exterior powers of the Jacobians.
Colimits of such diagrams are computed as quotients of the direct sum by
the per-arrow relations; a limit is the dual of the colimit of the
transposed diagram, so its cones are transposed cocones.  A map
on the direct sum that kills the relations factors through the colimit;
``ColimitResult.factor`` is the one place that checks and does this.

The colimit basis is the complement of the relation span in direct-sum
coordinates, deterministic from pivot order, so cocone matrices are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb

from .linalg import QuotientPresentation, RatMat
from .multilinear import exterior_power_map
from .presentation import GermPresentation, PresentedMap, require_valid, require_valid_map
from .symcalc import jacobian_at_zero

_ZERO = Fraction(0)
_ONE = Fraction(1)

__all__ = [
    "VectDiagram",
    "ColimitResult",
    "LimitResult",
    "apply_fibre_functor",
    "vect_colimit",
    "vect_limit",
    "rho_map",
    "pushforward_map",
]


@dataclass
class VectDiagram:
    """Objects with dimensions, arrows as matrices between them."""

    objects: list[int]
    arrows: list[tuple[int, int, RatMat]]

    def check_shapes(self) -> None:
        for src, dst, mat in self.arrows:
            if not (0 <= src < len(self.objects) and 0 <= dst < len(self.objects)):
                raise ValueError(f"arrow endpoints ({src}, {dst}) out of range")
            if mat.rows != self.objects[dst] or mat.cols != self.objects[src]:
                raise ValueError(
                    f"arrow {src} -> {dst} has shape {mat.rows}x{mat.cols}, "
                    f"expected {self.objects[dst]}x{self.objects[src]}"
                )

    def wedge(self, k: int) -> "VectDiagram":
        """The degree-k exterior power, object by object and arrow by arrow."""
        _require_degree(k)
        return VectDiagram(
            [comb(dim, k) for dim in self.objects],
            [(src, dst, exterior_power_map(mat, k)) for src, dst, mat in self.arrows],
        )


def _require_degree(k: int) -> None:
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")


def apply_fibre_functor(p: GermPresentation, k: int) -> VectDiagram:
    """Degree-k wedge of the marked-point tangent space, chart by chart.

    Objects are C(dim, k) in chart order; each presented arrow becomes the
    k-th exterior power of the Jacobian of its germ at the marked point.
    Implicit identity arrows are omitted: they contribute only trivial
    relations, which never change a colimit (this is property-tested).
    """
    _require_degree(k)
    require_valid(p)
    return _tangent_diagram(p).wedge(k)


def _tangent_diagram(p: GermPresentation) -> VectDiagram:
    """The degree-1 diagram of a validated presentation: chart dimensions,
    and each arrow's Jacobian taken once."""
    # shapes hold by validation; vect_colimit checks them again before use
    index = p.chart_index
    return VectDiagram(
        [dim for _, dim in p.charts],
        [(index(a.src), index(a.dst), jacobian_at_zero(a.germ)) for a in p.arrows],
    )


@dataclass
class ColimitResult:
    """Colimit of a diagram of vector spaces, in direct-sum coordinates.

    ``cocones[i]`` maps object i into the colimit; for every arrow
    (i, j, A) the identity cocones[j] @ A == cocones[i] holds exactly, and
    the stacked cocones are jointly surjective.
    """

    dim: int
    cocones: list[RatMat]
    relations: QuotientPresentation

    @property
    def projection(self) -> RatMat:
        return self.relations.projection

    @property
    def section(self) -> RatMat:
        return self.relations.section

    def factor(self, blocks: list[RatMat], rows: int) -> RatMat | None:
        """Factor a map on the direct sum, given by one block per object,
        through the colimit; None when it does not annihilate the relations.

        The factorization is unique, because the cocones are jointly
        surjective.
        """
        assembled = RatMat.hstack(blocks, rows=rows)
        if (assembled @ self.relations.relation_basis).is_zero():
            return self.relations.free_columns(assembled)
        return None

    def descend(self, blocks: list[RatMat], rows: int, what: str) -> RatMat:
        """``factor``, for a map that must factor.

        Well-definedness is always checked rather than assumed; a failure
        here means an internal inconsistency in Jacobians or sign
        conventions and is surfaced loudly.
        """
        factored = self.factor(blocks, rows)
        if factored is None:
            raise AssertionError(f"{what} does not annihilate the relation space")
        return factored


def vect_colimit(d: VectDiagram) -> ColimitResult:
    """Direct sum of the objects modulo one relation per arrow and source
    basis vector: the image of the vector through the arrow minus the
    vector itself."""
    d.check_shapes()
    *offsets, total = accumulate(d.objects, initial=0)
    width = sum(mat.cols for _, _, mat in d.arrows)
    # column j + s of the relation matrix is the relation of source basis
    # vector s of the arrow whose relations start at column j; entries are
    # the arrows' own Fractions, so the matrix needs no coercion
    rows: list[dict[int, Fraction]] = [{} for _ in range(total)]
    j = 0
    for src, dst, mat in d.arrows:
        for r, image in enumerate(mat.row_dicts, offsets[dst]):
            row = rows[r]
            for s, x in image.items():
                row[j + s] = x
        # minus the vector itself, dropping a -1 that cancels
        for s in range(mat.cols):
            row = rows[offsets[src] + s]
            v = row.get(j + s, _ZERO) - _ONE
            if v:
                row[j + s] = v
            else:
                del row[j + s]
        j += mat.cols
    relations = QuotientPresentation.from_relation_span(
        total, RatMat._trusted(total, width, rows)
    )
    cocones = [
        relations.projection.column_block(offsets[i], d.objects[i])
        for i in range(len(d.objects))
    ]
    return ColimitResult(relations.quotient_dim, cocones, relations)


@dataclass
class LimitResult:
    """Limit of a diagram in product coordinates.

    ``cones[i]`` maps the limit into object i; for every arrow (i, j, A)
    the identity A @ cones[i] == cones[j] holds exactly, and the stacked
    cones are injective.
    """

    dim: int
    cones: list[RatMat]


def vect_limit(d: VectDiagram) -> LimitResult:
    """The dual of ``vect_colimit``: the colimit of the transposed diagram
    is the dual of the limit, so the limit's cones are the transposed
    cocones of that colimit.  They span the kernel of the difference map
    on the product, in the basis of free coordinates of its reduced row
    echelon form."""
    d.check_shapes()
    dual = vect_colimit(
        VectDiagram(d.objects, [(dst, src, mat.transpose()) for src, dst, mat in d.arrows])
    )
    return LimitResult(dual.dim, [c.transpose() for c in dual.cocones])


def _colimits(p: GermPresentation, k: int) -> tuple[ColimitResult, ColimitResult]:
    """Fibre colimits of a validated presentation in degrees 1 and k, from
    one degree-1 diagram, each built once."""
    diagram = _tangent_diagram(p)
    tangent = vect_colimit(diagram)
    return tangent, tangent if k == 1 else vect_colimit(diagram.wedge(k))


def _rho(tangent: ColimitResult, ck: ColimitResult, k: int) -> RatMat:
    """Comparison map from the colimits in degrees 1 and k of one diagram."""
    blocks = [exterior_power_map(c, k) for c in tangent.cocones]
    return ck.descend(blocks, comb(tangent.dim, k), "the comparison map")


def rho_map(p: GermPresentation, k: int) -> RatMat:
    """Comparison map from the degree-k fibre colimit to the k-th wedge of
    the tangent fibre.

    On the slot of chart i it is the exterior power of the tangent cocone,
    descended through the colimit projection.
    """
    require_valid(p)
    return _rho(*_colimits(p, k), k)


def pushforward_map(m: PresentedMap, k: int) -> tuple[RatMat, RatMat]:
    """Maps induced on the degree-k fibre and on the k-th wedge of the
    tangent fibre, asserted to commute with the comparison maps."""
    return _pushforward(m, k)[:2]


def _pushforward(m: PresentedMap, k: int) -> tuple[RatMat, RatMat, RatMat]:
    """``pushforward_map`` together with the comparison map of the target."""
    _require_degree(k)
    require_valid_map(m)
    source, target = m.source, m.target
    src_tangent, src_ck = _colimits(source, k)
    dst_tangent, dst_ck = _colimits(target, k)

    assigned = [m.assignments[cid] for cid, _ in source.charts]
    jacobians = [jacobian_at_zero(germ) for _, germ in assigned]

    def induced(src_colim: ColimitResult, dst_colim: ColimitResult, degree: int) -> RatMat:
        blocks = [
            dst_colim.cocones[target.chart_index(tchart)] @ exterior_power_map(jac, degree)
            for (tchart, _), jac in zip(assigned, jacobians)
        ]
        return src_colim.descend(blocks, dst_colim.dim, "the induced fibre map")

    fibre_push = induced(src_ck, dst_ck, k)
    wedge_push = exterior_power_map(induced(src_tangent, dst_tangent, 1), k)

    target_rho = _rho(dst_tangent, dst_ck, k)
    if target_rho @ fibre_push != wedge_push @ _rho(src_tangent, src_ck, k):
        raise AssertionError(
            "induced maps do not commute with the comparison map"
        )
    return fibre_push, wedge_push, target_rho
