"""The constant exchange, the dual bialgebra and the Drinfeld double."""

from fractions import Fraction as Q

import pytest

from superbialg import catalog as cat
from superbialg import serialize as ser
from superbialg.algebra import BilinearForm, Superalgebra, koszul
from superbialg.bialgebra import (
    Bialgebra, InvalidBialgebra, delta_constants, dual_bracket, exchange,
)
from superbialg.cli import main
from superbialg.cohomology import Cochain, coboundary_0
from superbialg.double import (
    DoubleAlgebra, build_double, check_canonical_r, dual_bialgebra, identify,
)
from superbialg.graded import GradedBasis, LinearMap, Tensor2

from oracles import pairing_dual_bracket

SB = cat.s_basis()


# -- the cobracket entries D(i,j,k), read off delta -------------------------------

def test_extract_constants_diagonal_entry():
    # delta_1(h) = -y1 ^ y1 = -2 y1 (x) y1: D(y1,y1,h) is the stored entry
    assert delta_constants(cat.s_bialgebra_1())[(2, 2, 0)] == -2


def test_extract_constants_off_diagonal_entries():
    # delta_1(x) = x ^ h - y1 ^ y2: both orders of each pair are stored
    D = delta_constants(cat.s_bialgebra_1())
    assert (D[(0, 1, 1)], D[(1, 0, 1)]) == (-1, 1)
    assert (D[(2, 3, 1)], D[(3, 2, 1)]) == (-1, -1)


def test_extract_constants_zero_delta():
    b = Bialgebra(cat.s_algebra(), Cochain(cat.s_algebra(), 1, 0))
    assert delta_constants(b) == {}


# -- the exchange: dual constants C* = exchange(D), D* = exchange(C) --------------

def test_exchange_signs_odd_pairs_only():
    table = {(0, 1, 1): Q(3), (2, 3, 0): Q(1, 2), (0, 2, 2): Q(-1),
             (2, 2, 0): Q(2)}
    assert exchange(SB, table) == {(0, 1, 1): 3, (2, 3, 0): Q(-1, 2),
                                   (0, 2, 2): -1, (2, 2, 0): -2}
    assert exchange(SB, exchange(SB, table)) == table


def test_dual_constants_give_2h_star():
    # [y1*, y1*] = 2h*
    assert dual_bracket(cat.s_bialgebra_1()).constants[(2, 2, 0)] == 2


def test_dual_constants_of_zero_delta_are_abelian():
    b = Bialgebra(cat.s_algebra(), Cochain(cat.s_algebra(), 1, 0))
    assert dual_bracket(b).constants == {}


def test_exchange_is_an_involution():
    # the dual of the dual is the bialgebra itself, relabelled e**
    for bial in (cat.s_bialgebra_1(), cat.s_bialgebra_2(),
                 cat.t_bialgebra_1(), cat.t_bialgebra_2(),
                 cat.bialgebra_f(), cat.bialgebra_s()):
        back = dual_bialgebra(dual_bialgebra(bial))
        assert back.basis.labels == tuple(lab + "**"
                                          for lab in bial.basis.labels)
        assert back.algebra.constants == bial.algebra.constants
        assert delta_constants(back) == delta_constants(bial)


def test_dual_constants_agree_with_pairing_dual():
    # two independent derivations of the dual bracket, on the four
    # restricted structures and on both 8-dimensional doubles
    for bial in (cat.s_bialgebra_1(), cat.s_bialgebra_2(),
                 cat.t_bialgebra_1(), cat.t_bialgebra_2(),
                 cat.double_of_s().as_bialgebra(),
                 cat.double_of_t().as_bialgebra()):
        assert dual_bracket(bial).constants \
            == pairing_dual_bracket(bial).constants


@pytest.mark.parametrize("derive", [dual_bracket, dual_bialgebra, build_double],
                         ids=lambda f: f.__name__)
def test_even_self_bracket(derive):
    # an unverified sl(2,1) whose even vector E21 brackets to E12 with itself
    g = cat.sl21()
    B = g.basis
    bad = Superalgebra(B, {**g.constants,
                           (B.index("E21"), B.index("E21"), B.index("E12")): 1})
    b = Bialgebra(bad, Cochain(bad, 1, 0, cat.delta_f().values), check=False)
    if derive is dual_bracket:  # the dual bracket depends on delta alone
        assert derive(b).constants \
            == dual_bracket(cat.bialgebra_f()).constants
        return
    # the primal bracket breaks super antisymmetry at that pair, which
    # `Bialgebra.verify` names before the dual cobracket's even diagonal
    with pytest.raises(InvalidBialgebra) as caught:
        derive(b)
    assert str(caught.value) == {
        dual_bialgebra: "FAIL delta values are super-skew",
        build_double: "FAIL super antisymmetry ([E21,E21] = E12 but sign "
                      "rule wants -E12)"}[derive]


def test_dual_bialgebra_validates_its_algebra():
    # delta(h) += 1/2 x ^ y2 breaks the grading of the dual bracket, which
    # dual_bialgebra once returned because Bialgebra.verify does not
    # validate the algebra
    b = cat.t_bialgebra_2()
    delta = Cochain(b.algebra, 1, 0, b.delta.values)
    delta.set_value((0,), Tensor2(b.basis, b.basis,
                                  {(1, 3): Q(1, 2), (3, 1): Q(-1, 2)}))
    b = Bialgebra(b.algebra, delta, check=False)
    # dual_bialgebra validates g* once, as the first checks of
    # Bialgebra.verify, so its text is that report's first failure
    for derive, prefix in ((dual_bracket,
                            "dual bracket is not a Lie superalgebra: "),
                           (dual_bialgebra, "")):
        with pytest.raises(InvalidBialgebra) as err:
            derive(b)
        assert str(err.value) == prefix + (
            "FAIL grading consistency (C(x*,y2* -> h*) = 1/2 breaks the "
            "grading)")


def test_dual_bialgebra_validates_g_dual_once(monkeypatch):
    b = cat.s_bialgebra_1()
    validated = []

    def counted(self, real=Superalgebra.validate):
        validated.append(self.basis.labels)
        return real(self)
    monkeypatch.setattr(Superalgebra, "validate", counted)
    dual = dual_bialgebra(b)
    assert validated == [dual.basis.labels] == [("h*", "x*", "y1*", "y2*")]


def test_dual_bialgebra_is_a_valid_bialgebra():
    # both exchange directions at once: bracket and cobracket must cohere
    for bial in (cat.s_bialgebra_1(), cat.s_bialgebra_2(),
                 cat.t_bialgebra_1(), cat.t_bialgebra_2()):
        dual = dual_bialgebra(bial)
        assert dual.verify().passed


def test_opposite_of_dual_matches_other_structure():
    # the dual of the first structure, bracket negated, carries exactly the
    # bracket dual to the second structure
    from superbialg.bialgebra import opposite
    od = opposite(dual_bialgebra(cat.s_bialgebra_1()))
    assert od.algebra.constants == dual_bracket(cat.s_bialgebra_2()).constants


# -- the double -------------------------------------------------------------------

def test_double_dimension_and_parities():
    d = cat.double_of_s()
    assert d.underlying.dim() == 8
    assert d.underlying.basis.parities == SB.parities * 2


def test_double_satisfies_axioms():
    assert cat.double_of_s().underlying.validate().passed
    assert cat.double_of_t().underlying.validate().passed


def test_double_restricts_blockwise():
    d = cat.double_of_s()
    s = cat.s_algebra()
    for (i, j, k), c in s.constants.items():
        assert d.underlying.constants.get((i, j, k)) == c
    dual = dual_bracket(cat.s_bialgebra_2())
    for (i, j, k), c in dual.constants.items():
        assert d.underlying.constants.get((4 + i, 4 + j, 4 + k)) == c


def test_double_form_supersymmetric_nondegenerate():
    d = cat.double_of_s()
    assert d.form.is_supersymmetric()
    assert d.form.is_nondegenerate()


def test_double_form_pairs_blocks_hyperbolically():
    d = cat.double_of_s()
    n = 4
    for i in range(n):
        p = SB.parity(i)
        assert d.form.gram[n + i][i] == 1
        assert d.form.gram[i][n + i] == koszul(p, p)
        assert d.form.gram[i][i] == 0 and d.form.gram[n + i][n + i] == 0


def test_mixed_invariance_identities():
    # the two displayed shapes, over all basis triples of each kind
    d = cat.double_of_s()
    g = d.underlying
    n = 4
    for i in range(n):
        for j in range(n):
            for k in range(n):
                xs = g.basis.vector(n + i)   # dual side
                y = g.basis.vector(j)
                z = g.basis.vector(k)
                assert d.form.pair(g.bracket(xs, y), z) \
                    == d.form.pair(xs, g.bracket(y, z))
                ys = g.basis.vector(n + j)
                assert d.form.pair(xs, g.bracket(ys, z)) \
                    == d.form.pair(g.bracket(xs, ys), z)


def test_double_of_the_full_eight_dimensional_bialgebra():
    # nothing in the construction is specific to dimension four
    d = build_double(cat.bialgebra_f())
    assert d.underlying.dim() == 16
    assert check_canonical_r(d).passed


def test_double_of_trivial_abelian_bialgebra():
    one = GradedBasis(["z"], [0])
    g = Superalgebra(one, {})
    b = Bialgebra(g, Cochain(g, 1, 0))
    d = build_double(b)
    assert d.underlying.dim() == 2
    assert d.underlying.constants == {}
    assert d.form.gram == [[Q(0), Q(1)], [Q(1), Q(0)]]
    assert check_canonical_r(d).passed


# -- canonical r ------------------------------------------------------------------

def test_canonical_r_of_both_doubles():
    assert check_canonical_r(cat.double_of_s()).passed
    assert check_canonical_r(cat.double_of_t()).passed


def test_canonical_r_names_a_vector_that_moves_the_symmetric_part():
    d = cat.double_of_s()
    basis = d.underlying.basis
    r = d.canonical_r + Tensor2(basis, basis, {(0, 0): Q(1)})  # + h (x) h
    moved = DoubleAlgebra(d.underlying, d.delta)
    moved.canonical_r = r
    rep = check_canonical_r(moved)
    assert [(c.name, c.detail) for c in rep.failures] == [
        ("d(canonical r) = delta", "d(r) - delta has 4 nonzero values"),
        ("r + T(r) is adjoint-invariant", "a = x moves r + T(r)"),
    ]


def test_canonical_r_reproduces_delta():
    d = cat.double_of_s()
    assert coboundary_0(d.underlying, d.canonical_r) == d.delta


# -- identification ----------------------------------------------------------------

def test_identify_double_of_s_with_exotic_structure():
    rep = identify(cat.double_of_s(), cat.bialgebra_f(),
                   cat.double_s_identification(), cat.supertrace_gram())
    assert rep.passed


def test_identify_double_of_t_with_standard_structure():
    rep = identify(cat.double_of_t(), cat.bialgebra_s(),
                   cat.double_t_identification(), cat.supertrace_gram())
    assert rep.passed


def test_identify_detects_a_flipped_sign():
    phi = cat.double_s_identification()
    images = list(phi.images)
    images[6] = images[6].scale(-1)  # flip the image of y1*
    bad = LinearMap(phi.source, phi.target, images)
    rep = identify(cat.double_of_s(), cat.bialgebra_f(), bad,
                   cat.supertrace_gram())
    assert not rep.passed
    broken = [c for c in rep.failures if "bracket" in c.name]
    assert broken and broken[0].detail  # violated pair is reported


def test_identify_runs_each_check_once():
    rep = identify(cat.double_of_s(), cat.bialgebra_f(),
                   cat.double_s_identification(), cat.supertrace_gram())
    assert [c.name for c in rep.checks] == [
        "map connects double to target", "bijective", "parity preserving",
        "bracket preserved", "cobracket preserved",
        "form pulls back to the target form"]


def test_identify_names_the_first_broken_form_entry():
    gram = cat.supertrace_gram()
    doubled = BilinearForm(gram.basis, [[2 * x for x in row]
                                        for row in gram.gram])
    rep = identify(cat.double_of_s(), cat.bialgebra_f(),
                   cat.double_s_identification(), doubled)
    assert [(c.name, c.detail) for c in rep.failures] == [
        ("form pulls back to the target form",
         "form pullback breaks at (h, h*): 2 != 1")]


def test_form_pullback_equals_supertrace_gram():
    d = cat.double_of_s()
    phi = cat.double_s_identification()
    gram = cat.supertrace_gram()
    for i in range(8):
        for j in range(8):
            assert d.form.gram[i][j] == gram.pair(phi.images[i], phi.images[j])


def test_inconsistent_input_is_rejected():
    # a delta that is skew but fails coJacobi / the cocycle condition
    g = cat.s_algebra()
    c = Cochain(g, 1, 0)
    c.set_value((0,), Tensor2(SB, SB, {(2, 2): 2}))  # y1 ^ y1 at h only
    c.set_value((1,), Tensor2(SB, SB, {(2, 3): 1, (3, 2): 1}))
    b = Bialgebra(g, c, check=False)
    with pytest.raises(InvalidBialgebra):
        build_double(b)


def test_a_misgraded_cobracket_is_rejected(tmp_path, capsys):
    # delta(b) = c (x) c on the abelian (a | b, c) is super-skew, a cocycle
    # and coJacobi, but an even value on an odd vector: only the entry scan
    # of "delta is even" sees it
    B = GradedBasis(["a", "b", "c"], [0, 1, 1])
    g = Superalgebra(B, {})
    delta = Cochain(g, 1, 0, {(1,): Tensor2(B, B, {(2, 2): 1})})
    b = Bialgebra(g, delta, check=False)
    detail = "FAIL delta is even (D(c,c -> b) = 1 breaks the grading)"
    assert [str(c) for c in b.verify().failures] == [detail]
    for build in (lambda: Bialgebra(g, delta), lambda: build_double(b)):
        with pytest.raises(InvalidBialgebra) as err:
            build()
        assert str(err.value) == detail
    path = tmp_path / "misgraded.json"
    path.write_text(ser.dump(ser.bialgebra_to_json(b)))
    assert main(["double", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL  {detail}\n"


def test_double_keeps_its_bracket_axiom_report():
    # the report is the one `Bialgebra.verify` made on the 4-dim input
    d = cat.double_of_s()
    assert [c.name for c in d.axioms.checks] == [
        "grading consistency", "super antisymmetry",
        "even self-brackets vanish", "super Jacobi", "delta is even",
        "delta values are super-skew", "pairwise super cocycle condition",
        "Alt(delta (x) Id) delta = 0"]
    assert d.axioms.passed
    # a double read back from JSON was not verified here
    assert ser.double_from_json(ser.double_to_json(d)).axioms is None
