from fractions import Fraction
from math import comb

import pytest

from diffeokit.catalog import (
    ambient_inclusion,
    build_catalog_space,
    catalog_names,
    default_params,
    remark_wedge_point,
)
from diffeokit.forms import restrict_ambient_form, rho_dual, tilde_form_at_point
from diffeokit.presentation import Arrow, GermPresentation, filteredness, validate_presentation
from diffeokit.symcalc import Poly, PolyForm, PolyMap, jacobian_at_zero
from diffeokit.tangent import apply_fibre_functor, rho_map, vect_colimit


def fibre_dim(p, k):
    return vect_colimit(apply_fibre_functor(p, k)).dim


def volume_form():
    return PolyForm.from_terms(2, 2, {(1, 2): Poly.constant(2, 1)})


def rho_verdicts(p, k):
    mat = rho_map(p, k)
    rank = mat.rank()
    return {
        "injective": rank == mat.cols,
        "surjective": rank == mat.rows,
        "iso": mat.is_invertible(),
    }


def entries_under_test():
    yield build_catalog_space("euclidean", {"n": 0})
    yield build_catalog_space("euclidean", {"n": 1})
    yield build_catalog_space("euclidean", {"n": 2})
    yield build_catalog_space("euclidean", {"n": 3})
    for m in range(1, 5):
        yield build_catalog_space("wedge_lines", {"m": m})
    yield build_catalog_space("axes_subset")
    yield build_catalog_space("z2_quotient")
    for m in range(1, 5):
        yield build_catalog_space("spaghetti", {"m": m})


def test_every_oracle_entry_rederives():
    """The oracle tables are not trusted: every value is recomputed."""
    for entry in entries_under_test():
        p = entry.presentation
        assert validate_presentation(p).ok
        oracle = entry.oracle
        computed = {
            "tangent_dim": fibre_dim(p, 1),
            "t2_dim": fibre_dim(p, 2),
            "lambda2_dim": comb(fibre_dim(p, 1), 2),
        }
        report = filteredness(p, 4)
        computed["weakly_filtered"] = report.weakly_filtered
        computed["filtered"] = report.filtered
        verdicts = rho_verdicts(p, 2)
        for key in ("injective", "surjective", "iso"):
            if f"rho2_{key}" in oracle:
                computed[f"rho2_{key}"] = verdicts[key]
        if "volume_restriction_is_zero" in oracle:
            restricted = restrict_ambient_form(p, volume_form())
            computed["volume_restriction_is_zero"] = all(
                f.is_zero() for f in restricted.chart_forms.values()
            )
        if "tilde_volume_value" in oracle:
            value = tilde_form_at_point(p, volume_form())
            assert value.cols == 1
            computed["tilde_volume_value"] = str(value[0, 0])
        if "rho2_dual_injective" in oracle:
            computed["rho2_dual_injective"] = rho_dual(p, 2).is_injective()
        for key, expected in oracle.items():
            assert computed[key] == expected, (entry.name, entry.params, key)


def test_default_parameters():
    assert default_params("wedge_lines") == {"m": 2}
    assert default_params("spaghetti") == {"m": 3}
    assert default_params("euclidean") == {"n": 2}


def test_unknown_space_and_bad_params_rejected():
    with pytest.raises(ValueError):
        build_catalog_space("torus")
    with pytest.raises(ValueError):
        build_catalog_space("wedge_lines", {"m": 0})
    with pytest.raises(ValueError):
        build_catalog_space("euclidean", {"n": -1})
    with pytest.raises(ValueError):
        build_catalog_space("z2_quotient", {"m": 2})


def test_names_are_stable():
    assert catalog_names() == [
        "axes_subset",
        "euclidean",
        "spaghetti",
        "wedge_lines",
        "z2_quotient",
    ]


def test_axes_subset_shares_the_wedge_diagram():
    ax = build_catalog_space("axes_subset").presentation
    wl = build_catalog_space("wedge_lines", {"m": 2}).presentation
    assert [dim for _, dim in ax.charts] == [dim for _, dim in wl.charts]
    assert [(a.src != a.dst) for a in ax.arrows] == [(a.src != a.dst) for a in wl.arrows]
    assert [a.germ for a in ax.arrows] == [a.germ for a in wl.arrows]
    assert ax.ambient is not None and wl.ambient is None
    assert wl.wedge_type and not ax.wedge_type


def test_spaghetti_slopes_are_distinct():
    sp = build_catalog_space("spaghetti", {"m": 4}).presentation
    slopes = [
        jacobian_at_zero(sp.ambient.embeddings[f"l{i}"])[1, 0]
        for i in range(1, 5)
    ]
    assert slopes == [1, 2, 3, 4]


class TestRemarking:
    def test_remark_at_zero_returns_the_presentation(self):
        p = build_catalog_space("wedge_lines", {"m": 2}).presentation
        assert remark_wedge_point(p, "x1", 0) is p

    def test_remark_off_origin_keeps_one_chart(self):
        p = build_catalog_space("wedge_lines", {"m": 2}).presentation
        q = remark_wedge_point(p, "x1", Fraction(1, 2))
        assert q.charts == [("x1", 1)]
        assert q.arrows == []
        assert fibre_dim(q, 1) == 1

    def test_remark_translates_ambient(self):
        p = build_catalog_space("axes_subset").presentation
        q = remark_wedge_point(p, "x", 3)
        assert validate_presentation(q).ok
        emb = q.ambient.embeddings["x"]
        # embedding stays pointed after translation
        assert emb.is_pointed
        assert emb.components[0] == Poly.variable(1, 1)

    def test_remark_keeps_and_recenters_the_self_germs_fixing_the_point(self):
        s = Poly.variable(1, 1)
        p = GermPresentation(
            "line",
            [("c", 1)],
            [
                Arrow("cube", "c", "c", PolyMap(1, 1, [s**3])),
                Arrow("dbl", "c", "c", PolyMap(1, 1, [2 * s])),
            ],
        )
        q = remark_wedge_point(p, "c", 1)
        assert [(a.name, str(a.germ.components[0])) for a in q.arrows] == [
            ("cube", "s1^3 + 3*s1^2 + 3*s1")
        ]

    def test_remark_needs_a_line_chart(self):
        p = build_catalog_space("z2_quotient").presentation
        with pytest.raises(ValueError):
            remark_wedge_point(p, "c", 1)


def test_an_inclusion_needs_ambient_data():
    p = build_catalog_space("wedge_lines").presentation
    with pytest.raises(ValueError, match="presentation 'wedge_lines' carries no ambient data"):
        ambient_inclusion(p)
