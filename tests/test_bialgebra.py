"""r-matrices, cobracket axioms, duals, restriction, opposites, Manin triples."""

from fractions import Fraction as Q

import pytest

from superbialg import catalog as cat
from superbialg.algebra import Superalgebra
from superbialg.bialgebra import (
    Bialgebra, DegenerateForm, ManinTriple, NotClosedUnderCobracket, casimir,
    check_bialgebra_homomorphism, check_cojacobi, check_compatibility,
    check_f_equation, check_manin_triple, check_unitarity, cocommutator,
    dual_bracket, opposite, r_of_f, restrict,
)
from superbialg.cohomology import Cochain
from superbialg.graded import (
    BasisMismatch, GradedBasis, LinearMap, Tensor2, tensor, wedge,
)

B = cat.sl21_basis()
IDENTITY = LinearMap(B, B, B.vectors())
V = cat.V
SB = cat.s_basis()


# -- casimir -------------------------------------------------------------------

def test_casimir_has_displayed_diagonal_term():
    om = cat.omega()
    assert om[(0, 1)] == -1  # (E11+E33) (x) -(E22+E33)


def test_casimir_has_displayed_odd_terms():
    om = cat.omega()
    assert om[(4, 5)] == -1 and om[(5, 4)] == 1


def test_casimir_degenerate_form_raises():
    from superbialg.algebra import MatrixRealization, from_matrices
    one = GradedBasis(["z"], [0])
    nilpotent = [[Q(0), Q(1)], [Q(0), Q(0)]]  # squares to zero
    real = MatrixRealization(one, 2, 0, [nilpotent])
    with pytest.raises(DegenerateForm):
        casimir(real, from_matrices(real))


# -- r(f) ------------------------------------------------------------------------

def test_r_of_f_matches_display():
    r = cat.r_f()
    assert r[(4, 4)] == -1 and r[(6, 6)] == 1  # -E13(x)E13 + E23(x)E23


def test_r_of_identity_is_omega():
    assert r_of_f(IDENTITY, cat.omega()) == cat.omega()


def test_solved_standard_map_reproduces_r_s():
    assert r_of_f(cat.f_standard(), cat.omega()) == cat.r_standard()


def test_standard_map_has_no_self_pair_terms():
    r = cat.r_standard()
    assert r[(4, 4)] == 0 and r[(6, 6)] == 0


# -- the functional equation ------------------------------------------------------

def test_f_equation_for_f():
    assert check_f_equation(cat.sl21(), cat.f_map()).passed


def test_f_equation_for_identity_and_zero():
    g = cat.sl21()
    assert check_f_equation(g, IDENTITY).passed
    assert check_f_equation(g, LinearMap(B, B, [B.zero()] * len(B))).passed


def test_f_equation_for_standard_map():
    assert check_f_equation(cat.sl21(), cat.f_standard()).passed


# -- unitarity ---------------------------------------------------------------------

def test_r_of_f_and_the_f_equation_refuse_a_map_off_g():
    # f must map g to g: a map into (or out of) another basis of the same
    # size is refused, although its images would index the table
    other = GradedBasis([lab + "'" for lab in B.labels], B.parities)
    into, out_of = (LinearMap(B, other, other.vectors()),
                    LinearMap(other, B, B.vectors()))
    for f in (into, out_of):
        with pytest.raises(BasisMismatch):
            r_of_f(f, cat.omega())
        with pytest.raises(BasisMismatch):
            check_f_equation(cat.sl21(), f)


def test_f_equation_names_the_first_broken_pair():
    g = cat.sl21()
    twice = LinearMap(B, B, [v.scale(2) for v in B.vectors()])
    assert check_f_equation(g, twice).first_failure().detail == (
        "pair (E11+E33, E12): 4*E12 != 2*E12")


def test_unitarity_for_both_r_matrices():
    assert check_unitarity(cat.r_f(), cat.omega()).passed
    assert check_unitarity(cat.r_standard(), cat.omega()).passed


def test_unitarity_half_omega_plus_skew():
    t = wedge(V("E12"), V("E21"))  # a super-skew tensor
    r = cat.omega().scale(Q(1, 2)) + t
    assert check_unitarity(r, cat.omega()).passed


def test_unitarity_fails_off_by_one():
    r = cat.r_f() + tensor(V("E12"), V("E12"))
    rep = check_unitarity(r, cat.omega())
    assert not rep.passed and rep.first_failure().detail


# -- cocommutator tables -----------------------------------------------------------

def test_cocommutator_at_E21():
    d = cocommutator(cat.sl21(), cat.r_f())
    expected = (wedge(V("E21"), V("E11+E33"))
                - wedge(V("E23"), V("E13") + V("E31")))
    assert d.value(B.index("E21")) == expected


def test_cocommutator_vanishes_on_E23_E13():
    d = cocommutator(cat.sl21(), cat.r_f())
    assert d.value(B.index("E23")) is None
    assert d.value(B.index("E13")) is None


def test_standard_cocommutator_at_E31():
    d = cocommutator(cat.sl21(), cat.r_standard())
    assert d.value(B.index("E31")) == wedge(V("E31"), V("E11+E33"))


# -- cobracket axioms ---------------------------------------------------------------

def test_cojacobi_for_delta_f():
    assert check_cojacobi(cat.sl21(), cat.delta_f()).passed


def test_cojacobi_for_zero_cochain():
    assert check_cojacobi(cat.sl21(), Cochain(cat.sl21(), 1, 0)).passed


def test_cojacobi_for_restricted_delta2():
    b = cat.s_bialgebra_2()
    assert check_cojacobi(b.algebra, b.delta).passed


def test_cojacobi_failure_names_the_vector_and_the_cyclic_sum():
    # delta_f with E13^E23 added at E11+E33: the cyclic sum first fails
    # at E21, where odd legs give the terms mixed signs
    g = cat.sl21()
    d = Cochain(g, 1, 0, dict(cat.delta_f().values))
    d.set_value((B.index("E11+E33"),), wedge(V("E13"), V("E23")))
    rep = check_cojacobi(g, d)
    assert not rep.passed
    assert rep.first_failure().detail == (
        "at E21: cyclic sum = -E21⊗E13⊗E23 - E21⊗E23⊗E13 + E13⊗E21⊗E23"
        " - E13⊗E23⊗E21 + E23⊗E21⊗E13 - E23⊗E13⊗E21")


def test_cojacobi_needs_a_1_cochain():
    g = cat.sl21()
    with pytest.raises(ValueError):
        check_cojacobi(g, Cochain(g, 2, 0))


def test_compatibility_for_delta_f():
    assert check_compatibility(cat.sl21(), cat.delta_f()).passed


def test_compatibility_holds_trivially_on_abelian():
    # with a zero bracket both sides vanish for every linear delta
    two = GradedBasis(["a", "b"], [0, 0])
    g = Superalgebra(two, {})
    c = Cochain(g, 1, 0)
    w = Tensor2(two, two, {(0, 1): 1, (1, 0): -1})
    c.set_value((0,), w)
    c.set_value((1,), w)
    assert check_compatibility(g, c).passed


def test_compatibility_fails_for_constant_delta_on_nonabelian():
    g = cat.sl21()
    c = Cochain(g, 1, 0)
    c.set_value((B.index("E12"),), wedge(V("E13"), V("E13")))
    rep = check_compatibility(g, c)
    assert not rep.passed and rep.first_failure().detail


def test_compatibility_zero_cochain():
    assert check_compatibility(cat.sl21(), Cochain(cat.sl21(), 1, 0)).passed


# -- dual brackets -----------------------------------------------------------------

def test_dual_bracket_first_structure():
    d = dual_bracket(cat.s_bialgebra_1())
    assert d.constants == cat.dual_bracket_table_1().constants


def test_dual_bracket_second_structure():
    d = dual_bracket(cat.s_bialgebra_2())
    assert d.constants == cat.dual_bracket_table_2().constants


def test_dual_bracket_tables_are_the_displayed_half_tables():
    # each displayed pair lists [a, b] once; b, a follows by antisymmetry
    t1 = cat.dual_bracket_table_1()
    y1, y2 = t1.basis.vector("y1*"), t1.basis.vector("y2*")
    assert t1.bracket(y2, y1) == t1.basis.vector("x*")
    assert t1.bracket(y1, y1) == 2 * t1.basis.vector("h*")
    assert cat.dual_bracket_table_2().constants == {
        k: -c for k, c in t1.constants.items()}


# the nonzero brackets on the dual of the second structure on t
DUAL_BRACKET_TABLE_T2 = cat._dual_table({
    ("h*", "x*", "x*"): 1, ("h*", "y2*", "y2*"): 1, ("y1*", "y2*", "x*"): -1})


def test_dual_bracket_t_structures():
    for bial, table in ((cat.t_bialgebra_1(), cat.dual_bracket_table_t1()),
                        (cat.t_bialgebra_2(), DUAL_BRACKET_TABLE_T2)):
        assert dual_bracket(bial).constants == table.constants


def test_dual_bracket_of_zero_delta_is_abelian():
    b = Bialgebra(cat.s_algebra(), Cochain(cat.s_algebra(), 1, 0))
    assert dual_bracket(b).constants == {}


def test_dual_iso_maps_are_isomorphisms():
    from superbialg.algebra import check_homomorphism
    pairs = [
        (cat.dual_iso_1(), cat.s_bialgebra_1(), cat.s_algebra()),
        (cat.dual_iso_2(), cat.s_bialgebra_2(), cat.s_algebra()),
        (cat.dual_iso_t1(), cat.t_bialgebra_1(), cat.t_algebra()),
        (cat.dual_iso_t2(), cat.t_bialgebra_2(), cat.t_algebra()),
    ]
    for iso, bial, target in pairs:
        assert iso.is_bijective()
        assert check_homomorphism(iso, dual_bracket(bial), target).passed


# -- restriction -------------------------------------------------------------------

def test_restrict_exotic_to_S1():
    sub = restrict(cat.bialgebra_f(), cat.s1_span(),
                   labels=list(cat.S_LABELS))
    # delta at E13+E31 (named y2 downstairs) matches the displayed line
    got = sub.delta.value(3)
    sb = sub.algebra.basis
    expected = (wedge(sb.vector("y2"), sb.vector("h"))
                + wedge(sb.vector("x"), sb.vector("y1")))
    assert got == expected


def test_restrict_standard_to_T2():
    sub = restrict(cat.bialgebra_s(), cat.t2_span(),
                   labels=list(cat.S_LABELS))
    sb = sub.algebra.basis
    # row E12 (named x downstairs): x ^ -h plus the odd-pair correction
    expected = (wedge(sb.vector("x"), -1 * sb.vector("h"))
                + wedge(sb.vector("y1"), sb.vector("y2")))
    assert sub.delta.value(1) == expected


def test_restrict_standard_to_S1_fails():
    with pytest.raises(NotClosedUnderCobracket):
        restrict(cat.bialgebra_s(), cat.s1_span())


def test_restrict_checks_homogeneity():
    from superbialg.bialgebra import InhomogeneousInput
    with pytest.raises(InhomogeneousInput):
        restrict(cat.bialgebra_f(), [V("E12") + V("E13")])


def test_catalog_restrictions_pass_verify():
    # `restrict` does not verify its result: a subspace closed under the
    # bracket and the cobracket of a verified bialgebra inherits its axioms
    for sub in (cat.s_bialgebra_1(), cat.s_bialgebra_2(),
                cat.t_bialgebra_1(), cat.t_bialgebra_2()):
        rep = sub.verify()
        assert rep.passed, rep.first_failure()


# -- opposite ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["bialgebra_f", "bialgebra_s",
                                  "s_bialgebra_1", "s_bialgebra_2",
                                  "t_bialgebra_1", "t_bialgebra_2"])
def test_opposite_of_a_catalog_bialgebra_passes_verify(name):
    # `opposite` does not verify its result: each axiom is homogeneous in
    # the bracket, so negating it keeps them all
    rep = opposite(getattr(cat, name)()).verify()
    assert rep.passed, rep.first_failure()


def test_opposite_of_first_is_second():
    rep = check_bialgebra_homomorphism(
        cat.negation_map(SB), cat.s_bialgebra_2(),
        opposite(cat.s_bialgebra_1()))
    assert rep.passed


def test_bialgebra_homomorphism_names_the_broken_cobracket():
    # the identity preserves the bracket of s, but delta_1 = -delta_2
    ident = LinearMap(SB, SB, SB.vectors())
    rep = check_bialgebra_homomorphism(ident, cat.s_bialgebra_1(),
                                       cat.s_bialgebra_2())
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("parity preserving", True, None),
        ("bracket preserved", True, None),
        ("cobracket preserved", False,
         "cobracket breaks on h: -2*y1⊗y1 != 2*y1⊗y1"),
    ]


def test_opposite_is_an_involution():
    b = cat.s_bialgebra_1()
    bb = opposite(opposite(b))
    assert bb.algebra.constants == b.algebra.constants
    assert bb.delta == b.delta


def test_opposite_of_abelian_bracket_is_itself():
    two = GradedBasis(["a", "b"], [0, 1])
    g = Superalgebra(two, {})
    c = Cochain(g, 1, 0)
    c.set_value((0,), Tensor2(two, two, {(1, 1): 2}))
    b = Bialgebra(g, c)
    ob = opposite(b)
    assert ob.algebra.constants == {} and ob.delta == b.delta


# -- Manin triples -----------------------------------------------------------------

def test_manin_triple_for_exotic_split():
    assert check_manin_triple(cat.manin_triple_s()).passed


def test_manin_triple_for_standard_split():
    assert check_manin_triple(cat.manin_triple_t()).passed


def test_manin_triple_fails_without_direct_sum():
    t = ManinTriple(cat.sl21(), cat.supertrace_gram(),
                    cat.s1_span(), cat.s1_span())
    rep = check_manin_triple(t)
    assert not rep.passed
    assert any("direct sum" in c.name for c in rep.failures)


def test_manin_triple_names_a_nonisotropic_pair():
    # swap the last vectors of the two halves of the exotic split
    t = cat.manin_triple_s()
    swapped = ManinTriple(t.ambient, t.form, t.plus[:3] + t.minus[3:],
                          t.minus[:3] + t.plus[3:])
    details = {c.name: c.detail for c in check_manin_triple(swapped).checks}
    assert details["plus is isotropic"] == "<E13, E13 + E31> = 1"
    assert details["minus is isotropic"] == "<E23, E23 + E32> = 1"


def test_manin_triple_names_the_bracket_that_leaves_a_half():
    # (S2, S1) with E21 added to E12 in S2, and E13 + E31 in S1 replaced by
    # twice E21: the first bracket in product order that leaves S2 is
    # [E22+E33, E12 + E21] = -E12 + E21, and S1 is no longer independent
    t = cat.manin_triple_s()
    plus, minus = list(t.plus), list(t.minus)
    plus[1] = V("E12") + V("E21")
    minus[3] = V("E21").scale(2)
    details = {c.name: c.detail for c in check_manin_triple(
        ManinTriple(t.ambient, t.form, plus, minus)).checks}
    assert details["plus is a subalgebra"] == (
        "[(E22+E33), E12 + E21] leaves the span")
    assert details["minus is a subalgebra"] == (
        "minus needs independent vectors")


def test_compatibility_needs_a_1_cochain():
    g = cat.sl21()
    c = Cochain(g, 2, 0)
    c.set_value((0, 2), tensor(V("E12"), V("E12")))
    with pytest.raises(ValueError):
        check_compatibility(g, c)
