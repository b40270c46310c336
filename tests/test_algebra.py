"""Superalgebra axioms, matrix oracles, forms, structural checks."""

from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from superbialg import catalog as cat
from superbialg.algebra import (
    BilinearForm, DependentVectors, MatrixRealization, NotClosed,
    Superalgebra, check_homomorphism, check_invariance, from_matrices,
    is_subalgebra,
)
from superbialg.bialgebra import dual_bracket
from superbialg.cohomology import coboundary_0
from superbialg.graded import GradedBasis, LinearMap, Tensor2, tensor
from oracles import (
    adjoint_on_tensor2, image_of, rank, solve_exact, supertrace_form,
)

B = cat.sl21_basis()
V = cat.V
SB = cat.s_basis()


def sv(lab):
    return SB.vector(lab)


# -- brackets -----------------------------------------------------------------

def test_s_bracket_y2_y2():
    assert cat.s_algebra().bracket(sv("y2"), sv("y2")) == 2 * sv("h")


def test_s_bracket_y1_y2():
    assert cat.s_algebra().bracket(sv("y1"), sv("y2")) == sv("x")


def test_even_self_bracket_vanishes():
    g = cat.sl21()
    assert g.bracket(V("E12"), V("E12")).is_zero()


def test_sl21_elementary_commutator():
    g = cat.sl21()
    assert g.bracket(V("E12"), V("E21")) == V("E11+E33") - V("E22+E33")


def test_sl21_odd_anticommutator():
    g = cat.sl21()
    assert g.bracket(V("E13"), V("E31")) == V("E11+E33")


# -- validate -----------------------------------------------------------------

def test_validate_sl21():
    assert cat.sl21().validate().passed


def test_validate_s():
    assert cat.s_algebra().validate().passed


def test_validate_broken_jacobi():
    # change [y2, y2] from 2h to 2x
    g = Superalgebra.from_half_table(SB, {
        (0, 1, 1): Q(-1),
        (0, 2, 2): Q(-1),
        (1, 3, 2): Q(1),
        (2, 3, 1): Q(1),
        (3, 3, 1): Q(2),
    })
    rep = g.validate()
    assert not rep.passed
    failure = rep.first_failure()
    assert "Jacobi" in failure.name
    assert failure.detail == "Jacobi fails on (h,y2,y2): cyclic sum = -2*x"


def test_validate_reports_antisymmetry_break():
    consts = dict(cat.s_algebra().constants)
    consts[(1, 0, 1)] = consts[(1, 0, 1)] + 1  # breaks [x,h] = -[h,x]
    rep = Superalgebra(SB, consts).validate()
    assert not rep.passed
    assert any("antisymmetry" in c.name for c in rep.failures)


def test_validate_even_self_bracket_breaks_antisymmetry():
    consts = dict(cat.sl21().constants)
    consts[(0, 0, 2)] = Q(1)  # [E11+E33, E11+E33] = E12
    rep = Superalgebra(B, consts).validate()
    assert [(c.name, c.detail) for c in rep.failures][:2] == [
        ("super antisymmetry",
         "[E11+E33,E11+E33] = E12 but sign rule wants -E12"),
        ("even self-brackets vanish", "[E11+E33,E11+E33] = E12 != 0"),
    ]


def test_validate_names_a_misgraded_constant():
    # the first misgraded key in key order, whatever order the table was
    # built in: [h,x] = y1 comes before [x,h] = -y1
    for table in ({(0, 1, 2): Q(1)}, {(1, 0, 2): Q(-1), (0, 1, 2): Q(1)}):
        rep = Superalgebra(SB, table).validate()
        assert [(c.name, c.detail) for c in rep.failures][:1] == [
            ("grading consistency", "C(h,x -> y1) = 1 breaks the grading")]


def test_validate_perturbed_sl21_names_both_failures():
    consts = dict(cat.sl21().constants)
    consts[(0, 2, 2)] = 2 * consts[(0, 2, 2)]  # [E11+E33, E12] = 2*E12
    rep = Superalgebra(B, consts).validate()
    assert [(c.name, c.detail) for c in rep.failures] == [
        ("super antisymmetry",
         "[E12,E11+E33] = -E12 but sign rule wants -2*E12"),
        ("super Jacobi",
         "Jacobi fails on (E11+E33,E11+E33,E12): cyclic sum = 2*E12"),
    ]


def test_validate_without_antisymmetry_names_product_order_triple():
    # one-sided change: the first Jacobi failure is the unsorted (0, 2, 1)
    consts = dict(cat.sl21().constants)
    consts[(1, 2, 2)] = 2 * consts[(1, 2, 2)]  # [E22+E33, E12] = -2*E12
    rep = Superalgebra(B, consts).validate()
    assert [(c.name, c.detail) for c in rep.failures] == [
        ("super antisymmetry",
         "[E12,E22+E33] = E12 but sign rule wants 2*E12"),
        ("super Jacobi",
         "Jacobi fails on (E11+E33,E12,E22+E33): cyclic sum = -E12"),
    ]


def _jacobi_reference(g: Superalgebra) -> str | None:
    """First failing triple of super Jacobi in product order, summed
    through the public bracket: the detail `validate` must report."""
    par, lab, n = g.basis.parities, g.basis.labels, g.dim()
    e = g.basis.vector
    for a, b, c in product(range(n), repeat=3):
        total = g.basis.zero()
        for x, y, z, p, q in ((a, b, c, a, c), (b, c, a, b, a),
                              (c, a, b, c, b)):
            sign = -1 if par[p] and par[q] else 1
            total = total + g.bracket(e(x), g.bracket(e(y), e(z))).scale(sign)
        if not total.is_zero():
            return (f"Jacobi fails on ({lab[a]},{lab[b]},{lab[c]}):"
                    f" cyclic sum = {total}")
    return None


PERTURBED = {"sl21": lambda: cat.sl21(),
             "double of s": lambda: cat.double_of_s().underlying}
# (i, j, k, c): add c to C(i,j,k) of an 8-dim table
CHANGE = st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
                   st.fractions(min_value=-3, max_value=3, max_denominator=3))


@given(st.sampled_from(sorted(PERTURBED)),
       st.lists(CHANGE, max_size=3))
@settings(max_examples=40, deadline=None)
def test_validate_jacobi_matches_product_order_reference(name, changes):
    g = PERTURBED[name]()
    par = g.basis.parities
    consts = dict(g.constants)
    for i, j, k, c in changes:
        # add c to C(i,j,k) and keep the table super-antisymmetric
        if i == j and not par[i]:
            continue  # an even self-bracket must stay zero
        consts[(i, j, k)] = consts.get((i, j, k), 0) + c
        if i != j:
            sign = -1 if par[i] and par[j] else 1
            consts[(j, i, k)] = consts.get((j, i, k), 0) - sign * c
    h = Superalgebra(g.basis, consts)
    rep = h.validate()
    checks = {ch.name: ch for ch in rep.checks}
    assert checks["super antisymmetry"].passed
    want = _jacobi_reference(h)
    assert checks["super Jacobi"].passed == (want is None)
    assert checks["super Jacobi"].detail == want


@given(st.sampled_from(sorted(PERTURBED)),
       st.lists(CHANGE, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_validate_one_sided_change_scans_jacobi_in_product_order(name,
                                                                  changes):
    # add c to C(i,j,k) alone: without antisymmetry, every triple is
    # scanned in product order
    g = PERTURBED[name]()
    consts = dict(g.constants)
    for i, j, k, c in changes:
        consts[(i, j, k)] = consts.get((i, j, k), 0) + c
    h = Superalgebra(g.basis, consts)
    checks = {ch.name: ch for ch in h.validate().checks}
    assume(not checks["super antisymmetry"].passed)
    want = _jacobi_reference(h)
    assert checks["super Jacobi"].passed == (want is None)
    assert checks["super Jacobi"].detail == want


# -- adjoint action -----------------------------------------------------------
# the action on g (x) g is coboundary_0: d(t)(a) = a . t for an even t, and
# `oracles.adjoint_on_tensor2` is the Leibniz rule in Fractions

def test_adjoint_on_E23_square():
    g = cat.sl21()
    t = tensor(V("E23"), V("E23"))
    h = B.index("E11+E33")
    assert coboundary_0(g, t).value(h) == t.scale(-2)
    assert adjoint_on_tensor2(g, h, t) == t.scale(-2)


def test_adjoint_on_zero():
    g = cat.sl21()
    assert coboundary_0(g, Tensor2.zero(B)).is_zero()
    assert adjoint_on_tensor2(g, B.index("E12"), Tensor2.zero(B)).is_zero()


def test_omega_is_invariant():
    g = cat.sl21()
    om = cat.omega()
    assert coboundary_0(g, om).is_zero()
    for i in range(g.dim()):
        assert adjoint_on_tensor2(g, i, om).is_zero()


# -- matrix realizations ------------------------------------------------------

def test_from_matrices_reproduces_bracket_table():
    g = cat.sl21()
    real = cat.sl21_realization()
    assert from_matrices(real).constants == g.constants


def test_from_matrices_on_embedded_s():
    # push s into sl(2,1) along i1, onto S2, read the constants back
    emb = cat.i1_map()
    real = cat.sl21_realization()
    images = [image_of(real, v) for v in emb.images]
    sub = MatrixRealization(SB, 2, 1, images)
    assert from_matrices(sub).constants == cat.s_algebra().constants


def test_from_matrices_zero_realization_is_abelian():
    one = GradedBasis(["z"], [0])
    real = MatrixRealization(one, 2, 0, [[[Q(0), Q(0)], [Q(0), Q(0)]]])
    assert from_matrices(real).constants == {}


def test_from_matrices_dependent_images_raise():
    two = GradedBasis(["a", "b"], [0, 0])
    m = [[Q(1), Q(0)], [Q(0), Q(1)]]
    with pytest.raises(DependentVectors):
        from_matrices(MatrixRealization(two, 2, 0, [m, m]))


def test_from_matrices_not_closed_raises():
    two = GradedBasis(["E12", "E21"], [0, 0])
    e12 = [[Q(0), Q(1)], [Q(0), Q(0)]]
    e21 = [[Q(0), Q(0)], [Q(1), Q(0)]]
    with pytest.raises(NotClosed) as err:
        from_matrices(MatrixRealization(two, 2, 0, [e12, e21]))
    assert str(err.value) == "[E12, E21] is not in the span of the images"


def per_pair_constants(real):
    """Reference derivation: a dense graded commutator and a fresh
    solve_exact against all images for every ordered pair."""
    d = real.m + real.n
    cols = [[mat[r][c] for r in range(d) for c in range(d)]
            for mat in real.images]
    par = real.basis.parity
    out = {}
    for i, a in enumerate(real.images):
        for j, b in enumerate(real.images):
            sign = -1 if par(i) and par(j) else 1
            br = [sum(a[r][t] * b[t][c] - sign * b[r][t] * a[t][c]
                      for t in range(d))
                  for r in range(d) for c in range(d)]
            x = solve_exact(cols, br)
            assert x is not None
            out.update({(i, j, k): c for k, c in enumerate(x) if c != 0})
    return out


def test_from_matrices_matches_per_pair_solve():
    real = cat.sl21_realization()
    assert from_matrices(real).constants == per_pair_constants(real)


@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=8)
                .filter(lambda q: q != 0), min_size=8, max_size=8))
@example([Q(1, 2)] * 8)  # an explicit example fails without a shrink phase
@settings(max_examples=25, deadline=None)
def test_from_matrices_matches_per_pair_solve_rescaled(scales):
    base = cat.sl21_realization()
    real = MatrixRealization(base.basis, base.m, base.n,
                             [[[s * x for x in row] for row in mat]
                              for s, mat in zip(scales, base.images)])
    assert from_matrices(real).constants == per_pair_constants(real)


def test_realization_rejects_wrong_block_grading():
    with pytest.raises(ValueError):
        MatrixRealization(GradedBasis(["a"], [1]), 2, 1,
                          [[[Q(1), Q(0), Q(0)],
                            [Q(0), Q(0), Q(0)],
                            [Q(0), Q(0), Q(0)]]])


# -- supertrace form ----------------------------------------------------------

def test_supertrace_fixture_values():
    real = cat.sl21_realization()
    assert supertrace_form(real, V("E23"), V("E32")) == 1
    assert supertrace_form(real, V("E13"), V("E31")) == 1
    assert supertrace_form(real, V("E12"), V("E12")) == 0


def test_supertrace_gram_supersymmetric_nondegenerate():
    form = cat.supertrace_gram()
    assert form.is_supersymmetric()
    assert form.is_nondegenerate()


def test_a_form_with_dependent_gram_rows_is_degenerate():
    gram = [list(row) for row in cat.supertrace_gram().gram]
    gram[-1] = [a + b for a, b in zip(gram[0], gram[1])]
    assert rank(gram) == 7
    assert not BilinearForm(cat.sl21_basis(), gram).is_nondegenerate()


# -- subalgebras --------------------------------------------------------------

def test_s1_t1_are_subalgebras():
    g = cat.sl21()
    assert is_subalgebra(g, cat.s1_span())
    assert is_subalgebra(g, cat.t1_span())


def test_sl2_pair_is_not_a_subalgebra():
    assert not is_subalgebra(cat.sl21(), [V("E12"), V("E21")])


def test_full_basis_is_a_subalgebra():
    g = cat.sl21()
    assert is_subalgebra(g, g.basis.vectors())


def test_dependent_input_raises():
    with pytest.raises(DependentVectors):
        is_subalgebra(cat.sl21(), [V("E12"), 2 * V("E12")])


# -- invariance ---------------------------------------------------------------

def test_supertrace_form_is_invariant():
    assert check_invariance(cat.sl21(), cat.supertrace_gram()).passed


def test_invariance_trivial_on_abelian():
    one = GradedBasis(["a", "b"], [0, 0])
    g = Superalgebra(one, {})
    form = BilinearForm(one, [[Q(1), Q(0)], [Q(0), Q(1)]])
    assert check_invariance(g, form).passed


def test_invariance_ignores_terms_that_cancel():
    # [p,q] = z + w and <z,p> = -<w,p> = 1: <[p,q],p> sums to an exact 0
    # that the other side never produces; the form is still invariant
    four = GradedBasis(["p", "q", "z", "w"], [0, 0, 0, 0])
    g = Superalgebra.from_half_table(four, {(0, 1, 2): 1, (0, 1, 3): 1})
    gram = [[Q(0)] * 4 for _ in range(4)]
    gram[2][0], gram[3][0] = Q(1), Q(-1)
    assert check_invariance(g, BilinearForm(four, gram)).passed


def test_identity_gram_is_not_invariant():
    n = len(B)
    eye = BilinearForm(B, [[Q(1) if i == j else Q(0) for j in range(n)]
                           for i in range(n)])
    rep = check_invariance(cat.sl21(), eye)
    assert not rep.passed
    assert rep.first_failure().detail == (
        "<[E11+E33,E12],E12> = 1 but <E11+E33,[E12,E12]> = 0")


# -- homomorphisms ------------------------------------------------------------

def test_i1_is_a_bracket_homomorphism():
    rep = check_homomorphism(cat.i1_map(), cat.s_algebra(), cat.sl21())
    assert rep.passed


def test_i2_is_a_bracket_homomorphism_from_the_dual():
    dual = dual_bracket(cat.s_bialgebra_2())
    rep = check_homomorphism(cat.i2_map(), dual, cat.sl21())
    assert rep.passed


def test_zero_map_is_a_homomorphism():
    g = cat.s_algebra()
    zero = LinearMap(SB, SB, [SB.zero()] * 4)
    assert check_homomorphism(zero, g, g).passed


def test_wrong_sign_breaks_homomorphism():
    images = list(cat.i1_map().images)
    images[1] = images[1].scale(-1)  # flip x
    bad = LinearMap(SB, B, images)
    rep = check_homomorphism(bad, cat.s_algebra(), cat.sl21())
    assert not rep.passed
    assert str(rep.first_failure()) == (
        "FAIL bracket preserved (phi[x,y2] = E13 but [phi x, phi y2] = -E13)")


# -- solvability --------------------------------------------------------------

def test_s_and_t_are_solvable():
    assert cat.s_algebra().is_solvable()
    assert cat.t_algebra().is_solvable()


def test_sl21_is_not_solvable():
    assert not cat.sl21().is_solvable()
