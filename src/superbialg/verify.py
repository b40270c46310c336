"""The section-by-section reproduction suite behind `verify paper`.

Each fixture recomputes one displayed object or claim and compares it with
the stored reference table from the catalog.  `_build_suite` yields them
as (name, section, citation, thunk), and `run_fixtures` runs them in one
loop under one rule: a fixture passes only when it returns True or a
passing report.  Results are plain data so the CLI can render them.  A
failure's detail is a failing report's first failure, a raising fixture's
`Type: message` or the value returned (None included; `_same` returns
"got ..., displayed ...", `_same_span` "span ... != span ...",
`_solvable` the dimensions of the derived series and `algebra._leaves_span`
the first bracket outside a span); False has none.
"""

from __future__ import annotations

from functools import cache

from . import catalog as cat
from .algebra import _leaves_span, check_homomorphism, check_invariance
from .bialgebra import (
    NotClosedUnderCobracket, check_bialgebra_homomorphism, check_cojacobi,
    check_compatibility, check_f_equation, check_manin_triple,
    check_unitarity, dual_bracket, opposite, restrict,
)
from .cohomology import Cochain, coboundary, is_cocycle_1
from .double import check_canonical_r, identify
from .graded import EVEN, ODD, Tensor2, is_super_skew, span_equal

SECTIONS = ("2", "3.1", "3.2", "3.3", "3.4")


class FixtureResult:
    def __init__(self, name: str, section: str, citation: str,
                 passed: bool, detail: str = ""):
        self.name = name
        self.section = section
        self.citation = citation
        self.passed = passed
        self.detail = detail


def _delta_line(delta_fn, table_fn, label):
    def thunk():
        got = delta_fn().value(cat.sl21_basis().index(label))
        zero = Tensor2.zero(cat.sl21_basis())
        return _same(zero if got is None else got, table_fn()[label])
    return thunk


def _same(got, want):  # True, or a detail that names both sides
    return got == want or f"got {got}, displayed {want}"


def _same_span(a, b):  # True, or a detail that names both families
    return span_equal(a, b) or f"span {a} != span {b}"


def _solvable(g):  # True, or a detail that names the derived series
    dims = g.derived_dims()
    return dims[-1] == 0 or f"derived series dimensions {dims} stop above 0"


def _double_axioms(d):  # checked on the double itself, not on g
    rep = d.underlying.validate()
    rep.merge(check_invariance(d.underlying, d.form))
    return rep


def _build_suite():
    # one dual bracket (and its validation) per catalog bialgebra and run
    dual = cache(lambda bialgebra: dual_bracket(bialgebra()))

    def self_dual(iso, bialgebra, algebra):  # a bijective homomorphism g* -> g
        rep = check_homomorphism(iso(), dual(bialgebra), algebra())
        rep.add("bijective", iso().is_bijective())
        return rep

    # -- section 2 ----------------------------------------------------------
    yield ("paper.s2.f_even", "2", "s2: the eight displayed images of f",
           lambda: next((f"{lab} -> {im} leaves its parity" for lab, p, im
                         in zip(cat.SL21_LABELS, cat.SL21_PARITIES,
                                cat.f_map().images)
                         if im.entries and im.parity() != p), True))
    yield ("paper.s2.omega", "2", "s2: invariant tensor display",
           lambda: _same(cat.omega(), cat._omega_expected()))
    yield ("paper.s2.r_f", "2", "s2: r(f) = (f x 1) omega display",
           lambda: _same(cat.r_f(), cat._r_f_expected()))
    yield ("paper.s2.f_equation", "2", "s2: the functional equation for f",
           lambda: check_f_equation(cat.sl21(), cat.f_map()))
    yield ("paper.s2.unitarity_r_f", "2", "s2: eqn (1) for r(f)",
           lambda: check_unitarity(cat.r_f(), cat.omega()))

    # -- section 3.1 --------------------------------------------------------
    for lab in cat.SL21_LABELS:
        yield (f"paper.s3_1.delta_f.{lab}", "3.1",
               f"s3.1: cocommutator table, row {lab}",
               _delta_line(cat.delta_f, cat.delta_f_table, lab))
    yield ("paper.s3_1.delta_f_skew", "3.1", "s3.1: values lie in wedge form",
           lambda: next((f"delta_f({cat.SL21_LABELS[k]}) = {v} is not "
                         "super-skew" for (k,), v
                         in sorted(cat.delta_f().values.items())
                         if not is_super_skew(v)), True))
    yield ("paper.s3_1.delta_f_cocycle", "3.1", "s1.2: cocycle condition",
           lambda: is_cocycle_1(cat.sl21(), cat.delta_f()))
    yield ("paper.s3_1.delta_f_compatible", "3.1", "s1.2: condition (3)",
           lambda: check_compatibility(cat.sl21(), cat.delta_f()))
    yield ("paper.s3_1.delta_f_cojacobi", "3.1", "s1.2: coJacobi identity",
           lambda: check_cojacobi(cat.sl21(), cat.delta_f()))

    # -- section 3.2 --------------------------------------------------------
    yield ("paper.s3_2.s1_image", "3.2", "s3.2: S1 = Im(f-1) span",
           lambda: _same_span([im - v for im, v in zip(
               cat.f_map().images, cat.sl21_basis().vectors())], cat.s1_span()))
    yield ("paper.s3_2.s2_image", "3.2", "s3.2: S2 = Im(f) span",
           lambda: _same_span(cat.f_map().images, cat.s2_span()))
    yield ("paper.s3_2.s1_subalgebra", "3.2", "s3.2: image subspaces close",
           lambda: _leaves_span(cat.sl21(), cat.s1_span(), "S1") or True)
    yield ("paper.s3_2.s2_subalgebra", "3.2", "s3.2: image subspaces close",
           lambda: _leaves_span(cat.sl21(), cat.s2_span(), "S2") or True)
    yield ("paper.s3_2.s_axioms", "3.2", "s3.2: relations of s",
           lambda: cat.s_algebra().validate())
    yield ("paper.s3_2.s_solvable", "3.2", "s3.2: s is solvable",
           lambda: _solvable(cat.s_algebra()))
    yield ("paper.s3_2.graded_split", "3.2", "s3.2: g = s -o- s as graded spaces",
           lambda: _same(*[(ps.count(EVEN), ps.count(ODD)) for ps
                           in (cat.SL21_PARITIES, cat.S_PARITIES * 2)]))
    yield ("paper.s3_2.delta_1", "3.2", "s3.2: delta_1 table",
           lambda: _same(cat.s_bialgebra_1().delta, cat.delta_1_table()))
    yield ("paper.s3_2.delta_2", "3.2", "s3.2: delta_2 table",
           lambda: _same(cat.s_bialgebra_2().delta, cat.delta_2_table()))
    yield ("paper.s3_2.delta1_minus_delta2", "3.2", "s3.2: delta_1 = -delta_2",
           lambda: _same(cat.s_bialgebra_1().delta,
                         -cat.s_bialgebra_2().delta))
    yield ("paper.s3_2.dual_y1y1", "3.2", "s3.2: [y1*, y1*]_1 = 2h*",
           lambda: _same(dual(cat.s_bialgebra_1).bracket_basis(2, 2),
                         cat.dual_s_basis().vector("h*").scale(2)))
    yield ("paper.s3_2.dual_y1y2", "3.2", "s3.2: [y1*, y2*]_1 = x*",
           lambda: _same(dual(cat.s_bialgebra_1).bracket_basis(2, 3),
                         cat.dual_s_basis().vector("x*")))
    yield ("paper.s3_2.dual_bracket_1", "3.2", "s3.2: bracket table on s*",
           lambda: _same(dual(cat.s_bialgebra_1).constants,
                         cat.dual_bracket_table_1().constants))
    yield ("paper.s3_2.dual_bracket_2", "3.2", "s3.2: second bracket table on s*",
           lambda: _same(dual(cat.s_bialgebra_2).constants,
                         cat.dual_bracket_table_2().constants))
    yield ("paper.s3_2.dual_iso_1", "3.2", "s3.2: self-duality map for delta_1",
           lambda: self_dual(cat.dual_iso_1, cat.s_bialgebra_1, cat.s_algebra))
    yield ("paper.s3_2.dual_iso_2", "3.2", "s3.2: self-duality map for delta_2",
           lambda: self_dual(cat.dual_iso_2, cat.s_bialgebra_2, cat.s_algebra))
    yield ("paper.s3_2.opposite", "3.2",
           "s3.2: the second structure is opposite to the first",
           lambda: check_bialgebra_homomorphism(
               cat.negation_map(cat.s_basis()), cat.s_bialgebra_2(),
               opposite(cat.s_bialgebra_1())))

    # -- section 3.3 --------------------------------------------------------
    yield ("paper.s3_3.i1_bialgebra_hom", "3.3", "s3.3: the map i1",
           lambda: check_bialgebra_homomorphism(
               cat.i1_map(), cat.s_bialgebra_2(), cat.bialgebra_f()))
    yield ("paper.s3_3.i1_image", "3.3", "s3.3: Im(i1) = S2",
           lambda: _same_span(cat.i1_map().images, cat.s2_span()))
    yield ("paper.s3_3.i2_image", "3.3", "s3.3: Im(i2) = S1",
           lambda: _same_span(cat.i2_map().images, cat.s1_span()))
    yield ("paper.s3_3.double_s", "3.3", "s3.3: the double of (s, delta_2)",
           lambda: _double_axioms(cat.double_of_s()))
    yield ("paper.s3_3.double_s_identification", "3.3",
           "s3.3: d = (sl(2,1), delta_f) via i1 + i2",
           lambda: identify(cat.double_of_s(), cat.bialgebra_f(),
                            cat.double_s_identification(),
                            cat.supertrace_gram()))
    for a, b in (("E23", "E32"), ("E13", "E31")):
        yield (f"paper.s3_3.supertrace_{a}_{b}", "3.3", f"s3.3: <{a}, {b}> = 1",
               lambda a=a, b=b: _same(
                   cat.supertrace_gram().pair(cat.V(a), cat.V(b)), 1))
    yield ("paper.s3_3.manin_triple", "3.3", "s3.3: S_i isotropic halves",
           lambda: check_manin_triple(cat.manin_triple_s()))
    yield ("paper.s3_3.canonical_r", "3.3", "s1.3: quasitriangular r of d",
           lambda: check_canonical_r(cat.double_of_s()))

    # -- section 3.4 --------------------------------------------------------
    yield ("paper.s3_4.unitarity_r_s", "3.4", "s3.4: eqn (1) for r_s",
           lambda: check_unitarity(cat.r_standard(), cat.omega()))
    yield ("paper.s3_4.f_standard_equation", "3.4",
           "s3.4: solved standard map satisfies the functional equation",
           lambda: check_f_equation(cat.sl21(), cat.f_standard()))
    for lab in cat.SL21_LABELS:
        yield (f"paper.s3_4.delta_s.{lab}", "3.4",
               f"s3.4: standard cocommutator table, row {lab}",
               _delta_line(cat.delta_s, cat.delta_s_table, lab))
    yield ("paper.s3_4.restrict_fails_on_s1", "3.4",
           "s3.4: delta_s does not restrict to the S_i",
           lambda: _expect_not_closed(lambda: restrict(
               cat.bialgebra_s(), cat.s1_span())))
    yield ("paper.s3_4.t1_subalgebra", "3.4", "s3.4: T1 closes",
           lambda: _leaves_span(cat.sl21(), cat.t1_span(), "T1") or True)
    yield ("paper.s3_4.t2_subalgebra", "3.4", "s3.4: T2 closes",
           lambda: _leaves_span(cat.sl21(), cat.t2_span(), "T2") or True)
    yield ("paper.s3_4.t_axioms", "3.4", "s3.4: relations of t",
           lambda: cat.t_algebra().validate())
    yield ("paper.s3_4.t_solvable", "3.4", "s3.4: t is solvable",
           lambda: _solvable(cat.t_algebra()))
    yield ("paper.s3_4.delta_s1", "3.4", "s3.4: delta_s1 table",
           lambda: _same(cat.t_bialgebra_1().delta, cat.delta_s1_table()))
    yield ("paper.s3_4.delta_s2", "3.4", "s3.4: delta_s2 table",
           lambda: _same(cat.t_bialgebra_2().delta, cat.delta_s2_table()))
    yield ("paper.s3_4.deltas1_minus_deltas2", "3.4",
           "s3.4: delta_s1 = -delta_s2",
           lambda: _same(cat.t_bialgebra_1().delta,
                         -cat.t_bialgebra_2().delta))
    yield ("paper.s3_4.dual_bracket_t1", "3.4", "s3.4: bracket table on t*",
           lambda: _same(dual(cat.t_bialgebra_1).constants,
                         cat.dual_bracket_table_t1().constants))
    yield ("paper.s3_4.dual_y1y2", "3.4", "s3.4: [y1*, y2*]_1 = x*",
           lambda: _same(dual(cat.t_bialgebra_1).bracket_basis(2, 3),
                         cat.dual_s_basis().vector("x*")))
    yield ("paper.s3_4.dual_iso_t1", "3.4", "s3.4: self-duality map for delta_s1",
           lambda: self_dual(cat.dual_iso_t1, cat.t_bialgebra_1, cat.t_algebra))
    yield ("paper.s3_4.dual_iso_t2", "3.4", "s3.4: self-duality for delta_s2",
           lambda: self_dual(cat.dual_iso_t2, cat.t_bialgebra_2, cat.t_algebra))
    yield ("paper.s3_4.double_t", "3.4", "s3.4: the double of (t, delta_s2)",
           lambda: _double_axioms(cat.double_of_t()))
    yield ("paper.s3_4.double_t_identification", "3.4",
           "s3.4: d(t) = (sl(2,1), delta_s) via is1 + is2",
           lambda: identify(cat.double_of_t(), cat.bialgebra_s(),
                            cat.double_t_identification(),
                            cat.supertrace_gram()))
    yield ("paper.s3_4.manin_triple", "3.4", "s3.4: T_i isotropic halves",
           lambda: check_manin_triple(cat.manin_triple_t()))
    yield ("paper.s3_4.canonical_r", "3.4", "s1.3: quasitriangular r of d(t)",
           lambda: check_canonical_r(cat.double_of_t()))
    yield ("paper.s3_4.d_squared_zero", "3.4", "s1.1: d(d(r)) = 0 for both r",
           lambda: _same([coboundary(cat.sl21(), d)
                          for d in (cat.delta_f(), cat.delta_s())],
                         [Cochain(cat.sl21(), 2, EVEN)] * 2))


def _expect_not_closed(thunk):  # True, or a detail
    try:
        thunk()
    except NotClosedUnderCobracket:
        return True
    return "restrict returned; NotClosedUnderCobracket was expected"


def run_fixtures(section: str = "all") -> list[FixtureResult]:
    """Run the reproduction suite for one section tag or 'all'."""
    if section not in SECTIONS + ("all",):
        raise ValueError(f"unknown section {section!r}; "
                         f"choose from {', '.join(SECTIONS + ('all',))}")
    results = []
    for name, sec, citation, thunk in _build_suite():
        if section not in ("all", sec):
            continue
        try:
            out = thunk()
        except Exception as e:  # a raising fixture is a failing fixture
            out = f"{type(e).__name__}: {e}"
        report = hasattr(out, "passed")
        passed = out.passed if report else out is True
        detail = ("" if passed or out is False else
                  str(out.first_failure()) if report else str(out))
        results.append(FixtureResult(name, sec, citation, passed, detail))
    return results
