import random
from fractions import Fraction
from math import comb

import pytest

from diffeokit.catalog import ambient_inclusion, build_catalog_space, catalog_names
from diffeokit import tangent
from diffeokit.linalg import QuotientPresentation, RatMat, kernel_basis
from diffeokit.multilinear import exterior_power_map
from diffeokit.tangent import (
    VectDiagram,
    apply_fibre_functor,
    pushforward_map,
    rho_map,
    vect_colimit,
    vect_limit,
)
from diffeokit.presentation import PresentedMap
from util_rand import rand_diagram, rand_matrix


def space(name, **params):
    return build_catalog_space(name, params or None).presentation


def glued_diagram(rng):
    """Charts of dimension 1-4, each glued to the next and some also to the
    first, by sparse maps with scaled entries, as chart transitions give."""
    dims = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
    scales = [Fraction(v) for v in (1, -1, 2, -2, "1/2", "-1/3", "3/2")]
    arrows = []
    for i in range(len(dims) - 1):
        for j in [i + 1] + ([0] if rng.random() < 0.5 else []):
            entries = [rng.choice(scales) if rng.random() < 0.4 else 0
                       for _ in range(dims[j] * dims[i])]
            arrows.append((i, j, RatMat(dims[j], dims[i], entries)))
    return VectDiagram(dims, arrows)


class TestFibreFunctor:
    def test_wedge_tangent_diagram(self):
        d = apply_fibre_functor(space("wedge_lines", m=2), 1)
        assert d.objects == [0, 1, 1]
        assert [(s, t) for s, t, _ in d.arrows] == [(0, 1), (0, 2)]
        assert all(m.rows == 1 and m.cols == 0 for _, _, m in d.arrows)

    def test_wedge_degree_two_collapses(self):
        d = apply_fibre_functor(space("wedge_lines", m=2), 2)
        assert d.objects == [0, 0, 0]

    def test_z2_degree_two_is_trivial_action(self):
        d = apply_fibre_functor(space("z2_quotient"), 2)
        assert d.objects == [1]
        assert all(m == RatMat.from_rows([[1]]) for _, _, m in d.arrows)

    def test_invalid_presentation_rejected(self):
        from diffeokit.presentation import Arrow, GermPresentation
        from diffeokit.symcalc import PolyMap

        bad = GermPresentation(
            "bad", [("a", 1)], [Arrow("f", "a", "a", PolyMap.identity(2))]
        )
        with pytest.raises(ValueError):
            apply_fibre_functor(bad, 1)


class TestColimit:
    def test_single_object_is_its_own_colimit(self):
        d = VectDiagram([3], [])
        colim = vect_colimit(d)
        assert colim.dim == 3
        assert colim.cocones[0] == RatMat.identity(3)

    def test_z2_tangent_space_collapses(self):
        colim = vect_colimit(apply_fibre_functor(space("z2_quotient"), 1))
        assert colim.dim == 0

    def test_wedge_tangent_space_is_a_plane(self):
        colim = vect_colimit(apply_fibre_functor(space("wedge_lines", m=2), 1))
        assert colim.dim == 2

    def test_cocone_compatibility_random(self):
        rng = random.Random(71)
        for _ in range(60):
            d = rand_diagram(rng)
            colim = vect_colimit(d)
            for src, dst, mat in d.arrows:
                assert colim.cocones[dst] @ mat == colim.cocones[src]

    def test_cocones_jointly_surjective(self):
        rng = random.Random(73)
        for _ in range(40):
            colim = vect_colimit(rand_diagram(rng))
            stacked = RatMat.hstack(colim.cocones, rows=colim.dim)
            assert stacked.rank() == colim.dim

    def test_universal_property(self):
        # every compatible cocone factors uniquely, with zero residual
        rng = random.Random(79)
        for _ in range(60):
            d = rand_diagram(rng)
            colim = vect_colimit(d)
            t = rng.randint(0, 3)
            b = rand_matrix(rng, t, colim.dim)
            cocone = [b @ c for c in colim.cocones]
            assembled = RatMat.hstack(cocone, rows=t)
            assert (assembled @ colim.relations.relation_basis).is_zero()
            factored = assembled @ colim.section
            for original, image in zip(colim.cocones, cocone):
                assert factored @ original == image
            assert factored == b  # uniqueness via joint surjectivity

    def test_invariance_under_adding_composites_and_identities(self):
        rng = random.Random(83)
        for _ in range(60):
            d = rand_diagram(rng)
            base = vect_colimit(d)
            arrows = list(d.arrows)
            composable = [
                (a, b) for a in d.arrows for b in d.arrows if a[1] == b[0]
            ]
            for (i, _, first), (_, l, second) in composable[:3]:
                arrows.append((i, l, second @ first))
            for idx, dim in enumerate(d.objects):
                arrows.append((idx, idx, RatMat.identity(dim)))
            enriched = vect_colimit(VectDiagram(list(d.objects), arrows))
            assert enriched.dim == base.dim
            assert enriched.cocones == base.cocones
            assert enriched.relations.projection == base.relations.projection

    def test_relations_match_column_by_column_assembly(self):
        # reference: one relation column per arrow and source basis vector,
        # the image of the vector minus the vector, built densely
        rng = random.Random(97)
        for _ in range(60):
            d = rand_diagram(rng)
            # identity loops give zero relations, where an entry set instead
            # of accumulated would show
            d.arrows += [(i, i, RatMat.identity(dim)) for i, dim in enumerate(d.objects)]
            offsets = [sum(d.objects[:i]) for i in range(len(d.objects))]
            total = sum(d.objects)
            columns = []
            for src, dst, mat in d.arrows:
                for s in range(mat.cols):
                    col = [Fraction(0)] * total
                    for r in range(mat.rows):
                        col[offsets[dst] + r] += mat[r, s]
                    col[offsets[src] + s] -= 1
                    columns.append(col)
            relations = RatMat.from_rows(columns, cols=total).transpose()
            assert vect_colimit(d).relations == QuotientPresentation.from_relation_span(
                total, relations
            )


class TestDescend:
    def test_stacked_cocones_descend_to_the_identity(self):
        rng = random.Random(107)
        for _ in range(40):
            colim = vect_colimit(rand_diagram(rng))
            assert colim.descend(colim.cocones, colim.dim, "the cocones") == RatMat.identity(
                colim.dim
            )

    def test_free_columns_equal_the_product_with_the_section(self):
        def check(colim, blocks, rows):
            assembled = RatMat.hstack(blocks, rows=rows)
            assert colim.descend(blocks, rows, "the blocks") == assembled @ colim.section

        # the catalog spaces: blocks of the comparison map in degrees 1-3
        spaces = [space(name) for name in catalog_names()]
        spaces += [space("euclidean", n=4), space("wedge_lines", m=3), space("spaghetti", m=4)]
        for p in spaces:
            tangent = vect_colimit(apply_fibre_functor(p, 1))
            for k in range(1, 4):
                ck = vect_colimit(apply_fibre_functor(p, k))
                check(ck, [exterior_power_map(c, k) for c in tangent.cocones], comb(tangent.dim, k))
        # random glued diagrams, with blocks from a random map on the colimit
        rng = random.Random(131)
        for _ in range(60):
            colim = vect_colimit(glued_diagram(rng))
            b = rand_matrix(rng, rng.randint(0, 4), colim.dim)
            check(colim, [b @ c for c in colim.cocones], b.rows)

    def test_block_that_misses_a_relation_is_rejected(self):
        # the tangent colimit of z2_quotient is zero; the identity on the
        # chart does not kill the relation v - (-v)
        colim = vect_colimit(apply_fibre_functor(space("z2_quotient"), 1))
        with pytest.raises(AssertionError, match="the identity block"):
            colim.descend([RatMat.identity(2)], 2, "the identity block")


class TestOneColimitPerDiagram:
    def test_pushforward_in_degree_two(self, call_counts):
        inclusion = ambient_inclusion(space("axes_subset"))
        call_counts.clear()
        pushforward_map(inclusion, 2)
        # source and target, in degrees 1 and 2; one validation of each side
        assert call_counts["vect_colimit"] == 4
        assert call_counts["validate_presentation"] == 2
        # two source arrows, no target arrows, three chart assignments
        assert call_counts["jacobian_at_zero"] == 5

    def test_pushforward_in_degree_one(self, call_counts):
        inclusion = ambient_inclusion(space("axes_subset"))
        call_counts.clear()
        pushforward_map(inclusion, 1)
        assert call_counts["vect_colimit"] == 2

    def test_rho_in_degree_one(self, call_counts):
        p = space("wedge_lines", m=2)
        call_counts.clear()
        rho_map(p, 1)
        assert call_counts == {
            "vect_colimit": 1, "validate_presentation": 1, "jacobian_at_zero": 2
        }

    def test_rho_takes_each_jacobian_once(self, call_counts):
        p = space("wedge_lines", m=3)
        call_counts.clear()
        rho_map(p, 2)
        # one per arrow, shared by the degree-1 and degree-2 diagrams
        assert call_counts["jacobian_at_zero"] == 3
        assert call_counts["vect_colimit"] == 2


class TestLimit:
    def test_single_object(self):
        lim = vect_limit(VectDiagram([4], []))
        assert lim.dim == 4

    def test_two_objects_no_arrows_is_a_product(self):
        lim = vect_limit(VectDiagram([1, 1], []))
        assert lim.dim == 2

    def test_equalizer_of_identity_and_negation(self):
        arrows = [
            (0, 0, RatMat.identity(2)),
            (0, 0, RatMat.identity(2).scale(-1)),
        ]
        lim = vect_limit(VectDiagram([2], arrows))
        assert lim.dim == 0

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("name", catalog_names())
    def test_limit_of_transposed_diagram_gives_the_colimit_functionals(self, name, k):
        # a functional on a colimit is a compatible family of functionals on
        # its objects: a cone over the transposed diagram
        d = apply_fibre_functor(space(name), k)
        colim = vect_colimit(d)
        lim = vect_limit(
            VectDiagram(d.objects, [(dst, src, mat.transpose()) for src, dst, mat in d.arrows])
        )
        assert lim.dim == colim.dim
        cones = RatMat.vstack(lim.cones, cols=lim.dim)
        functionals = colim.projection.transpose()
        both = RatMat.hstack([cones, functionals], rows=cones.rows)
        assert cones.rank() == functionals.rank() == both.rank() == colim.dim

    def test_cone_compatibility_random(self):
        rng = random.Random(89)
        for _ in range(40):
            d = rand_diagram(rng)
            lim = vect_limit(d)
            for src, dst, mat in d.arrows:
                assert mat @ lim.cones[src] == lim.cones[dst]

    def test_cones_are_the_kernel_basis_of_the_difference_map(self):
        # one row per arrow and target coordinate: A x_src - x_dst
        rng = random.Random(90)
        for _ in range(60):
            d = rand_diagram(rng, max_objects=5, max_dim=4, max_arrows=6)
            offsets = [sum(d.objects[:i]) for i in range(len(d.objects))]
            rows = []
            for src, dst, mat in d.arrows:
                for r in range(mat.rows):
                    row = [Fraction(0)] * sum(d.objects)
                    for c in range(mat.cols):
                        row[offsets[src] + c] += mat[r, c]
                    row[offsets[dst] + r] -= 1
                    rows.append(row)
            difference = RatMat.from_rows(rows, cols=sum(d.objects))
            lim = vect_limit(d)
            assert RatMat.vstack(lim.cones, cols=lim.dim) == kernel_basis(difference)


@pytest.mark.parametrize("build", [vect_colimit, vect_limit])
@pytest.mark.parametrize(
    "d, message",
    [
        (VectDiagram([1], [(0, 1, RatMat.identity(1))]), r"arrow endpoints \(0, 1\) out of range"),
        (VectDiagram([1, 2], [(0, 1, RatMat.identity(1))]),
         "arrow 0 -> 1 has shape 1x1, expected 2x1"),
    ],
)
def test_shape_guards_name_the_callers_arrow(build, d, message):
    with pytest.raises(ValueError, match=message):
        build(d)


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_fibre_functor(space("euclidean"), -1),
        lambda: VectDiagram([2], []).wedge(-1),
        lambda: pushforward_map(ambient_inclusion(space("axes_subset")), -1),
    ],
)
def test_negative_degrees_are_rejected(call):
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        call()


def test_comparison_maps_that_do_not_commute_are_an_internal_error(monkeypatch):
    # a planted fault: the two comparison maps disagree by a factor of 2
    real, scales = tangent._rho, iter([2, 1])
    monkeypatch.setattr(tangent, "_rho", lambda *args: real(*args).scale(next(scales)))
    with pytest.raises(AssertionError, match="induced maps do not commute with the comparison map"):
        pushforward_map(ambient_inclusion(space("euclidean", n=2)), 1)


class TestRho:
    def test_plane_degree_two_is_iso(self):
        r = rho_map(space("euclidean", n=2), 2)
        assert r == RatMat.from_rows([[1]])
        assert r.is_invertible()

    def test_wedge_degree_two_not_surjective(self):
        r = rho_map(space("wedge_lines", m=2), 2)
        assert (r.rows, r.cols) == (1, 0)
        assert r.is_injective()
        assert not r.is_surjective()

    def test_z2_degree_two_not_injective(self):
        r = rho_map(space("z2_quotient"), 2)
        assert (r.rows, r.cols) == (0, 1)
        assert r.is_surjective()
        assert not r.is_injective()

    def test_degree_one_is_the_identity_on_the_colimit(self):
        for name in ("euclidean", "wedge_lines", "z2_quotient", "spaghetti", "axes_subset"):
            p = space(name)
            colim = vect_colimit(apply_fibre_functor(p, 1))
            assert rho_map(p, 1) == RatMat.identity(colim.dim)

    def test_degree_zero_is_invertible_on_connected_presentations(self):
        for name in ("euclidean", "wedge_lines", "z2_quotient", "spaghetti", "axes_subset"):
            assert rho_map(space(name), 0).is_invertible()


class TestPushforward:
    def test_identity_map_induces_identities(self):
        p = space("wedge_lines", m=2)
        fibre, wedge = pushforward_map(PresentedMap.identity(p), 2)
        assert fibre == RatMat.identity(0)
        assert wedge == RatMat.identity(1)

    def test_axes_inclusion_tangent_iso(self):
        inclusion = ambient_inclusion(space("axes_subset"))
        fibre, wedge = pushforward_map(inclusion, 1)
        assert fibre == wedge
        assert (fibre.rows, fibre.cols) == (2, 2)
        assert fibre.is_invertible()

    def test_axes_inclusion_wedge_square_sends_generator_to_volume(self):
        inclusion = ambient_inclusion(space("axes_subset"))
        _, wedge = pushforward_map(inclusion, 2)
        assert wedge == RatMat.from_rows([[1]])

    def test_invalid_map_rejected(self):
        src = space("axes_subset")
        dst = space("euclidean", n=2)
        from diffeokit.symcalc import Poly, PolyMap

        broken = PresentedMap(
            src,
            dst,
            {
                "x": ("e", PolyMap(1, 2, [Poly.variable(1, 1), Poly.zero(1)])),
                "y": ("e", PolyMap(1, 2, [Poly.zero(1), Poly.variable(1, 1)])),
                # missing the point chart assignment
            },
        )
        with pytest.raises(ValueError):
            pushforward_map(broken, 1)


def test_degree_collapse_above_chart_dimension():
    for name in ("euclidean", "wedge_lines", "z2_quotient", "spaghetti", "axes_subset"):
        p = space(name)
        n = max(dim for _, dim in p.charts)
        for k in range(n + 1, n + 4):
            assert vect_colimit(apply_fibre_functor(p, k)).dim == 0


def test_wedge_lines_dimension_table():
    for m in range(1, 6):
        p = space("wedge_lines", m=m)
        tangent = vect_colimit(apply_fibre_functor(p, 1))
        assert tangent.dim == m
        assert vect_colimit(apply_fibre_functor(p, 2)).dim == 0
        assert comb(tangent.dim, 2) == comb(m, 2)


def test_results_hold_only_fractions():
    # results built without coercion must still hold Fractions only: an int
    # in a relation would turn into a float when its row is scaled
    def exact(m):
        return all(type(x) is Fraction for x in m.data)

    rng = random.Random(101)
    for _ in range(60):
        d = rand_diagram(rng)
        colim = vect_colimit(d)
        q = colim.relations
        assert exact(q.projection) and exact(q.section) and exact(q.relation_basis)
        assert all(exact(c) for c in colim.cocones)
        for src, dst, mat in d.arrows:
            assert exact(colim.cocones[dst] @ mat)
            assert exact(mat.rref()[0])
            assert all(exact(exterior_power_map(mat, k)) for k in range(4))
