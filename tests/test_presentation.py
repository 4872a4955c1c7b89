from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit.catalog import build_catalog_space, catalog_names
from diffeokit.presentation import (
    Ambient,
    Arrow,
    ClosureResult,
    FilterednessReport,
    GermPresentation,
    PresentedMap,
    ValidationReport,
    _identity_arrows,
    composition_closure,
    filteredness,
    require_valid,
    validate_presentation,
    validate_presented_map,
)
from diffeokit.symcalc import Poly, PolyMap, compose_maps, jacobian_at_zero


def doubling_space():
    dbl = PolyMap(1, 1, [Poly.variable(1, 1) * 2])
    return GermPresentation("doubling", [("c", 1)], [Arrow("dbl", "c", "c", dbl)])


class TestValidation:
    def test_every_catalog_space_validates(self):
        for name in catalog_names():
            entry = build_catalog_space(name)
            report = validate_presentation(entry.presentation)
            assert report.ok, (name, report.issues)

    def test_z2_quotient_arrow_set(self):
        p = build_catalog_space("z2_quotient").presentation
        assert [a.name for a in p.arrows] == ["neg"]
        assert validate_presentation(p).ok

    def test_report_is_truthy_exactly_when_ok(self):
        good = build_catalog_space("z2_quotient").presentation
        bad = GermPresentation("bad", [("a", 1)], [Arrow("f", "a", "b", PolyMap.identity(1))])
        assert bool(validate_presentation(good)) is True
        assert bool(validate_presentation(bad)) is False

    def test_wrong_arrow_shape_is_diagnosed(self):
        bad = GermPresentation(
            "bad",
            [("a", 1), ("b", 2)],
            [Arrow("f", "a", "b", PolyMap.identity(1))],
        )
        report = validate_presentation(bad)
        assert not report.ok
        assert any("R^1 -> R^1" in issue and "R^1 -> R^2" in issue for issue in report.issues)

    def test_non_pointed_arrow_rejected(self):
        germ = PolyMap(1, 1, [Poly.constant(1, 1) + Poly.variable(1, 1)])
        bad = GermPresentation("bad", [("a", 1)], [Arrow("f", "a", "a", germ)])
        report = validate_presentation(bad)
        assert not report.ok
        assert any("not pointed" in issue for issue in report.issues)

    def test_ambient_incompatibility_reports_residual(self):
        ax = build_catalog_space("axes_subset").presentation
        broken_embeddings = dict(ax.ambient.embeddings)
        broken_embeddings["x"] = PolyMap(
            1, 2, [Poly.variable(1, 1), Poly.variable(1, 1)]
        )
        from diffeokit.presentation import Ambient

        bad = GermPresentation(
            "bad", list(ax.charts), list(ax.arrows), ambient=Ambient(2, broken_embeddings)
        )
        # zero germs still commute with the broken embedding, so tamper more:
        # give the arrow itself a germ whose composite disagrees
        report = validate_presentation(bad)
        assert report.ok  # zero germs cannot detect this embedding change
        really_bad = GermPresentation(
            "bad2",
            [("a", 1), ("b", 1)],
            [Arrow("f", "a", "b", PolyMap.identity(1))],
            ambient=Ambient(
                1,
                {
                    "a": PolyMap(1, 1, [Poly.variable(1, 1)]),
                    "b": PolyMap(1, 1, [Poly.variable(1, 1) * 2]),
                },
            ),
        )
        report2 = validate_presentation(really_bad)
        assert not report2.ok
        assert any("residual" in issue for issue in report2.issues)


class TestClosure:
    def test_z2_closes_to_two_arrows(self):
        p = build_catalog_space("z2_quotient").presentation
        result = composition_closure(p, 3)
        assert result.closed
        germs = sorted(str(list(a.germ.components)) for a in result.arrows)
        assert len(germs) == 2

    def test_wedge_closes_immediately(self):
        p = build_catalog_space("wedge_lines", {"m": 2}).presentation
        result = composition_closure(p, 2)
        assert result.closed
        # three identities plus the two zero germs through the point chart
        assert len(result.arrows) == 5

    def test_doubling_never_closes(self):
        result = composition_closure(doubling_space(), 3)
        assert not result.closed
        coeffs = sorted(
            jacobian_at_zero(a.germ)[0, 0] for a in result.arrows
        )
        assert coeffs == [1, 2, 4, 8]

    def test_closure_is_idempotent(self):
        p = build_catalog_space("z2_quotient").presentation
        first = composition_closure(p, 4)
        enriched = GermPresentation(
            p.name, list(p.charts), list(first.arrows), ambient=p.ambient
        )
        second = composition_closure(enriched, 4)
        assert second.closed
        assert len(second.arrows) == len(first.arrows)

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValueError):
            composition_closure(doubling_space(), 0)


class TestFilteredness:
    def test_single_chart_identity_only_is_filtered(self):
        for n in range(0, 4):
            p = build_catalog_space("euclidean", {"n": n}).presentation
            report = filteredness(p, 3)
            assert report.weakly_filtered == "yes"
            assert report.filtered == "yes"

    def test_z2_weakly_but_not_filtered(self):
        p = build_catalog_space("z2_quotient").presentation
        report = filteredness(p, 4)
        assert report.weakly_filtered == "yes"
        assert report.filtered == "no"

    def test_wedge_not_weakly_filtered(self):
        p = build_catalog_space("wedge_lines", {"m": 2}).presentation
        report = filteredness(p, 4)
        assert report.weakly_filtered == "no"
        assert report.filtered == "no"

    def test_unclosed_monoid_reports_unknown(self):
        report = filteredness(doubling_space(), 3)
        assert report.weakly_filtered == "unknown"
        assert report.filtered == "unknown"

    def test_filtered_implies_weakly_filtered_everywhere(self):
        spaces = [build_catalog_space(n).presentation for n in catalog_names()]
        spaces.append(doubling_space())
        for p in spaces:
            report = filteredness(p, 4)
            if report.filtered == "yes":
                assert report.weakly_filtered == "yes"


class TestPresentedMap:
    def test_identity_map_validates(self):
        for name in catalog_names():
            p = build_catalog_space(name).presentation
            assert validate_presented_map(PresentedMap.identity(p)).ok

    def test_ambient_inclusion_validates(self):
        from diffeokit.catalog import ambient_inclusion

        for name in ("axes_subset", "spaghetti"):
            p = build_catalog_space(name).presentation
            assert validate_presented_map(ambient_inclusion(p)).ok

    def test_a_target_identity_is_matched_without_composing(self, call_counts):
        from diffeokit.catalog import ambient_inclusion

        p = build_catalog_space("spaghetti").presentation
        call_counts.clear()
        assert validate_presented_map(ambient_inclusion(p)).ok
        # per arrow: its ambient check in validate_presentation and the
        # composite phi_j . a; the one-chart target offers only its identity
        assert call_counts["compose_maps"] == 2 * len(p.arrows)

        z2 = build_catalog_space("z2_quotient").presentation
        assert z2.ambient is None and len(z2.arrows) == 1
        call_counts.clear()
        assert validate_presented_map(PresentedMap.identity(z2)).ok
        # the negation fails the identity and is matched by composing with itself
        assert call_counts["compose_maps"] == 2

    def test_non_commuting_assignment_rejected(self):
        src = build_catalog_space("axes_subset").presentation
        dst = build_catalog_space("euclidean", {"n": 2}).presentation
        assignments = {
            "x": ("e", PolyMap(1, 2, [Poly.variable(1, 1), Poly.zero(1)])),
            "y": ("e", PolyMap(1, 2, [Poly.zero(1), Poly.variable(1, 1)])),
            # the point chart must land on zero for the zero germs to commute
            "o": ("e", PolyMap(0, 2, [Poly.zero(0), Poly.zero(0)])),
        }
        good = PresentedMap(src, dst, assignments)
        assert validate_presented_map(good).ok
        report = validate_presented_map(
            PresentedMap(
                src,
                dst,
                {
                    **assignments,
                    "x": ("e", PolyMap(1, 2, [Poly.zero(1), Poly.zero(1)])),
                },
            )
        )
        assert report.ok  # zero germs still commute with any pointed assignment
        skew = GermPresentation(
            "skew",
            [("a", 1), ("b", 1)],
            [Arrow("f", "a", "b", PolyMap.identity(1))],
        )
        bad = PresentedMap(
            skew,
            dst,
            {
                "a": ("e", PolyMap(1, 2, [Poly.variable(1, 1), Poly.zero(1)])),
                "b": ("e", PolyMap(1, 2, [Poly.zero(1), Poly.variable(1, 1)])),
            },
        )
        report = validate_presented_map(bad)
        assert not report.ok
        assert any("does not commute" in issue for issue in report.issues)


# -- every issue text of the two validators -------------------------------------

S = Poly.variable(1, 1)
ID1 = PolyMap.identity(1)
FROM_PLANE = PolyMap(2, 1, [Poly.variable(2, 1)])


def pres(charts, arrows=(), embeddings=None, ambient_dim=1):
    ambient = None if embeddings is None else Ambient(ambient_dim, embeddings)
    return GermPresentation("p", charts, list(arrows), ambient=ambient)


LINE = pres([("y", 1)])
TWICE = pres([("x", 1), ("x", 1)])

ISSUE_CASES = [
    ("duplicate-chart", validate_presentation, TWICE, ["duplicate chart id 'x'"]),
    (
        "negative-chart-dim",
        validate_presentation,
        pres([("x", -1)]),
        ["chart 'x' has negative dimension -1"],
    ),
    (
        "duplicate-arrow",
        validate_presentation,
        pres([("x", 1)], [Arrow("a", "x", "x", ID1)] * 2),
        ["duplicate arrow id 'a'"],
    ),
    (
        "unknown-source",
        validate_presentation,
        pres([("x", 1)], [Arrow("a", "ghost", "x", ID1)]),
        ["arrow 'a' has unknown source chart 'ghost'"],
    ),
    (
        "unknown-target",
        validate_presentation,
        pres([("x", 1)], [Arrow("a", "x", "ghost", ID1)]),
        ["arrow 'a' has unknown target chart 'ghost'"],
    ),
    (
        "negative-ambient-dim",
        validate_presentation,
        pres([], embeddings={}, ambient_dim=-1),
        ["ambient dimension -1 is negative"],
    ),
    (
        "missing-embedding",
        validate_presentation,
        pres([("x", 1)], embeddings={}),
        ["chart 'x' has no ambient embedding"],
    ),
    (
        "wrong-shaped-embedding",
        validate_presentation,
        pres([("x", 1)], embeddings={"x": PolyMap(1, 2, [S, S])}),
        ["embedding of chart 'x' has shape R^1 -> R^2, expected R^1 -> R^1"],
    ),
    (
        "unpointed-embedding",
        validate_presentation,
        pres([("x", 1)], embeddings={"x": PolyMap(1, 1, [S + 1])}),
        ["embedding of chart 'x' is not pointed"],
    ),
    # the ambient check skips what failed its own check instead of raising
    (
        "arrow-from-a-wrong-shaped-embedding",
        validate_presentation,
        pres([("x", 1), ("y", 1)], [Arrow("b", "x", "y", ID1)], {"x": FROM_PLANE, "y": ID1}),
        ["embedding of chart 'x' has shape R^2 -> R^1, expected R^1 -> R^1"],
    ),
    (
        "arrow-from-an-embedded-unknown-chart",
        validate_presentation,
        pres([("x", 1)], [Arrow("b", "ghost", "x", ID1)], {"x": ID1, "ghost": ID1}),
        ["arrow 'b' has unknown source chart 'ghost'"],
    ),
    (
        "invalid-source",
        validate_presented_map,
        PresentedMap(TWICE, LINE, {}),
        ["source presentation invalid: duplicate chart id 'x'"],
    ),
    (
        "invalid-target",
        validate_presented_map,
        PresentedMap(LINE, pres([("y", 1), ("y", 1)]), {}),
        ["target presentation invalid: duplicate chart id 'y'"],
    ),
    (
        "unknown-target-chart",
        validate_presented_map,
        PresentedMap(LINE, LINE, {"y": ("ghost", ID1)}),
        ["chart 'y' is sent to unknown target chart 'ghost'"],
    ),
    (
        "wrong-shaped-assignment",
        validate_presented_map,
        PresentedMap(LINE, LINE, {"y": ("y", PolyMap(1, 2, [S, S]))}),
        ["assignment of chart 'y' has shape R^1 -> R^2, expected R^1 -> R^1"],
    ),
    (
        "unpointed-assignment",
        validate_presented_map,
        PresentedMap(LINE, LINE, {"y": ("y", PolyMap(1, 1, [S + 1]))}),
        ["assignment of chart 'y' is not pointed"],
    ),
]


@pytest.mark.parametrize(
    "validate, value, issues",
    [case[1:] for case in ISSUE_CASES],
    ids=[case[0] for case in ISSUE_CASES],
)
def test_validators_report_each_issue(validate, value, issues):
    assert validate(value) == ValidationReport(False, issues)


# -- closure and pair scan against the all-pairs reference ---------------------


def reference_closure(p, depth):
    """All-pairs closure: every round composes each generator with every
    arrow so far, and the round past ``depth`` is built in full, then
    discarded."""
    if depth < 1:
        raise ValueError(f"closure depth must be >= 1, got {depth}")
    require_valid(p)
    arrows = {}
    for a in _identity_arrows(p) + p.arrows:
        arrows.setdefault((a.src, a.dst, a.germ), a)
    word_length = 1
    while True:
        additions = []
        current = list(arrows.values())
        for g in p.arrows:
            for w in current:
                if w.dst != g.src:
                    continue
                germ = compose_maps(g.germ, w.germ)
                key = (w.src, g.dst, germ)
                if key not in arrows:
                    additions.append(Arrow(f"{g.name}.{w.name}", w.src, g.dst, germ))
        fresh = []
        seen_new = set()
        for a in additions:
            key = (a.src, a.dst, a.germ)
            if key not in arrows and key not in seen_new:
                seen_new.add(key)
                fresh.append(a)
        if not fresh:
            return ClosureResult(list(arrows.values()), True)
        word_length += 1
        if word_length > depth:
            return ClosureResult(list(arrows.values()), False)
        for a in fresh:
            arrows[(a.src, a.dst, a.germ)] = a


def reference_filteredness(p, depth):
    """Every pair of arrows tried, every composite formed once per pair."""
    closure = reference_closure(p, depth)
    if not closure.closed:
        return FilterednessReport("unknown", "unknown", False, len(closure.arrows))
    arrows = closure.arrows
    chart_ids = p.chart_ids
    targets_from = {cid: {a.dst for a in arrows if a.src == cid} for cid in chart_ids}
    for i, ci in enumerate(chart_ids):
        for cj in chart_ids[i:]:
            if not (targets_from[ci] & targets_from[cj]):
                return FilterednessReport("no", "no", True, len(arrows))
    for i, f in enumerate(arrows):
        for g in arrows[i + 1 :]:
            if f.src != g.src or f.dst != g.dst or f.germ == g.germ:
                continue
            if not any(
                compose_maps(h.germ, f.germ) == compose_maps(h.germ, g.germ)
                for h in arrows
                if h.src == f.dst
            ):
                return FilterednessReport("yes", "no", True, len(arrows))
    return FilterednessReport("yes", "yes", True, len(arrows))


def monomial(nvars, *variables):
    """The product of the given coordinates s_i (1-based) in ``nvars`` variables."""
    exps = [0] * nvars
    for i in variables:
        exps[i - 1] += 1
    return Poly(nvars, {tuple(exps): 1})


@st.composite
def pointed_germs(draw, src_dim, dst_dim):
    """Linear terms with small coefficients in every component, plus at most
    one quadratic monomial (more make the depth-4 composites slow to form)."""
    coeffs = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])
    comps = []
    for _ in range(dst_dim):
        c = Poly.zero(src_dim)
        for i in range(1, src_dim + 1):
            c = c + monomial(src_dim, i) * draw(coeffs)
        comps.append(c)
    if src_dim and dst_dim and draw(st.booleans()):
        k = draw(st.integers(0, dst_dim - 1))
        i, j = draw(st.integers(1, src_dim)), draw(st.integers(1, src_dim))
        comps[k] = comps[k] + monomial(src_dim, i, j) * draw(coeffs)
    return PolyMap(src_dim, dst_dim, comps)


@st.composite
def presentations(draw):
    """1-3 charts of dimension 0-2 and 1-3 arrows between them: germs with
    linear and quadratic terms, half of them self-loops, signed permutations,
    zero maps, identities and repeated germs."""
    dims = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    charts = [(f"c{i}", d) for i, d in enumerate(dims)]
    arrows = []
    for n in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["germ", "germ", "signed", "zero", "identity", "repeat"]))
        if kind == "repeat" and arrows:
            earlier = draw(st.sampled_from(arrows))
            arrows.append(Arrow(f"f{n}", earlier.src, earlier.dst, earlier.germ))
            continue
        src, src_dim = draw(st.sampled_from(charts))
        dst, dst_dim = draw(st.sampled_from(charts + [(src, src_dim)] * len(charts)))
        if kind == "identity":
            germ = PolyMap.identity(src_dim)
            dst = src
        elif kind == "signed":  # of finite order, so the closure can close
            perm = draw(st.permutations(range(1, src_dim + 1)))
            signs = draw(st.lists(st.sampled_from([1, -1]), min_size=src_dim, max_size=src_dim))
            germ = PolyMap(src_dim, src_dim, [monomial(src_dim, i) * c for i, c in zip(perm, signs)])
            dst = src
        elif kind == "zero":
            germ = PolyMap.zero_map(src_dim, dst_dim)
        else:
            germ = draw(pointed_germs(src_dim, dst_dim))
        arrows.append(Arrow(f"f{n}", src, dst, germ))
    return GermPresentation("drawn", charts, arrows)


@given(presentations(), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_closure_and_scan_match_all_pairs_reference(p, depth):
    assert composition_closure(p, depth) == reference_closure(p, depth)
    assert filteredness(p, depth) == reference_filteredness(p, depth)


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_catalog_closure_and_scan_match_all_pairs_reference(name, depth):
    p = build_catalog_space(name).presentation
    assert composition_closure(p, depth) == reference_closure(p, depth)
    assert filteredness(p, depth) == reference_filteredness(p, depth)


@given(presentations(), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_closed_closure_contains_every_composite_of_its_arrows(p, depth):
    closure = composition_closure(p, depth)
    if not closure.closed:
        return
    keys = {(a.src, a.dst, a.germ) for a in closure.arrows}
    for f in closure.arrows:
        for h in closure.arrows:
            if f.dst == h.src:
                assert (f.src, h.dst, compose_maps(h.germ, f.germ)) in keys, (h.name, f.name)


# -- how many composites the closure and the pair scan form --------------------


def near_identity_space():
    """Three germs id + quadratic on R^3: infinite order, never closes."""
    s = [monomial(3, i) for i in (1, 2, 3)]
    germs = [
        [s[0] + monomial(3, 1, 2), s[1], s[2]],
        [s[0] + monomial(3, 3, 2), s[1] + monomial(3, 3, 1) * 2, s[2]],
        [s[0] - monomial(3, 2, 1), s[1] + monomial(3, 2, 3), s[2] + monomial(3, 3, 2)],
    ]
    arrows = [Arrow(f"g{i}", "c", "c", PolyMap(3, 3, g)) for i, g in enumerate(germs)]
    return GermPresentation("near_identity", [("c", 3)], arrows)


def signed_permutation_space():
    """A signed 3-cycle and a transposition generate all 48 signed
    permutations of R^3, every one a word of length at most 8; the zero
    arrow to R^0 coequalizes every parallel pair."""
    s = [monomial(3, i) for i in (1, 2, 3)]
    arrows = [
        Arrow("g0", "c", "c", PolyMap(3, 3, [s[1], s[2], -s[0]])),
        Arrow("g1", "c", "c", PolyMap(3, 3, [s[1], s[0], s[2]])),
        Arrow("z", "c", "o", PolyMap.zero_map(3, 0)),
    ]
    return GermPresentation("signed_permutations", [("c", 3), ("o", 0)], arrows)


class TestCompositionCounts:
    def test_closure_composes_each_generator_with_each_arrow_at_most_once(self, call_counts):
        # ``composed``: the exact count, so a change of the closure's work shows
        for p, depth, size, closed, composed in [
            (near_identity_space(), 3, 40, False, 40),
            (signed_permutation_space(), 8, 50, True, 144),
        ]:
            call_counts.clear()
            result = composition_closure(p, depth)
            assert (len(result.arrows), result.closed) == (size, closed)
            assert call_counts["compose_maps"] <= len(p.arrows) * len(result.arrows)
            assert call_counts["compose_maps"] == composed

    def test_pair_scan_composes_each_pair_of_arrows_at_most_once(self, call_counts):
        p = signed_permutation_space()
        call_counts.clear()
        composition_closure(p, 8)
        in_closure = call_counts["compose_maps"]
        call_counts.clear()
        report = filteredness(p, 8)
        assert report == FilterednessReport("yes", "yes", True, 50)
        assert call_counts["compose_maps"] - in_closure <= 50 * 50
        assert (call_counts["compose_maps"], in_closure) == (336, 144)

    def test_filteredness_builds_no_polynomial_through_the_validating_constructor(
        self, monkeypatch
    ):
        cases = [
            (near_identity_space(), 3, FilterednessReport("unknown", "unknown", False, 40)),
            (signed_permutation_space(), 8, FilterednessReport("yes", "yes", True, 50)),
        ]
        validated = []
        validating_init = Poly.__init__

        def counted_init(self, *args, **kwargs):
            validated.append(args)
            validating_init(self, *args, **kwargs)

        monkeypatch.setattr(Poly, "__init__", counted_init)
        for p, depth, expected in cases:
            validated.clear()
            assert filteredness(p, depth) == expected
            assert len(validated) == 0
