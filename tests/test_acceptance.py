"""The acceptance gate: fourteen criteria, one pass/fail line each.

Every comparison is bit-exact rational equality; run with `pytest -s` to
see the per-criterion lines.
"""

import random
from fractions import Fraction as Q

from superbialg import catalog as cat
from superbialg.algebra import Superalgebra, check_homomorphism, is_subalgebra
from superbialg.bialgebra import (
    NotClosedUnderCobracket, check_bialgebra_homomorphism, check_cojacobi,
    check_compatibility, check_f_equation, check_manin_triple,
    check_unitarity, dual_bracket, opposite, restrict,
)
from superbialg.cohomology import coboundary, coboundary_0, is_cocycle_1
from superbialg.double import check_canonical_r, identify
from superbialg.graded import (
    LinearEndomorphism, Tensor2, image_basis, span_equal, super_swap, tensor,
    wedge,
)

from oracles import alt_s, pairing_dual_bracket

B = cat.sl21_basis()
V = cat.V


def criterion(number: int, description: str, ok: bool):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_invariant_tensor():
    ok = cat.omega() == cat._omega_expected()
    criterion(1, "invariant tensor reproduced term-for-term", ok)


def test_criterion_02_r_f():
    ok = cat.r_f() == cat._r_f_expected()
    criterion(2, "r(f) = (f x 1) omega matches its display", ok)


def test_criterion_03_unitarity():
    ok = (check_unitarity(cat.r_f(), cat.omega()).passed
          and check_unitarity(cat.r_standard(), cat.omega()).passed)
    criterion(3, "r + T(r) = omega for both r-matrices", ok)


def test_criterion_04_f_equation():
    ok = check_f_equation(cat.sl21(), cat.f_map()).passed
    criterion(4, "functional equation for f over all 64 ordered pairs", ok)


def test_criterion_05_cocommutator_tables():
    ok = True
    d_f, d_s = cat.delta_f(), cat.delta_s()
    for lab, expected in cat.delta_f_table().items():
        got = d_f.value(B.index(lab))
        ok = ok and (got if got is not None else Tensor2.zero(B)) == expected
    for lab, expected in cat.delta_s_table().items():
        got = d_s.value(B.index(lab))
        ok = ok and (got if got is not None else Tensor2.zero(B)) == expected
    criterion(5, "all sixteen cocommutator table rows match exactly", ok)


def test_criterion_06_cobracket_axioms():
    g = cat.sl21()
    ok = True
    for d in (cat.delta_f(), cat.delta_s()):
        ok = ok and is_cocycle_1(g, d).passed
        ok = ok and check_compatibility(g, d).passed
        ok = ok and check_cojacobi(g, d).passed
    for r in (cat.r_f(), cat.r_standard(), cat.omega()):
        ok = ok and coboundary(g, coboundary_0(g, r)).is_zero()
    criterion(6, "cocycle, compatibility, coJacobi and d o d = 0", ok)


def test_criterion_07_subalgebra_structure():
    g = cat.sl21()
    fm1 = cat.f_map() - LinearEndomorphism.identity(B)
    ok = span_equal(image_basis(fm1), cat.s1_span())
    ok = ok and span_equal(image_basis(cat.f_map()), cat.s2_span())
    for span in (cat.s1_span(), cat.s2_span(), cat.t1_span(), cat.t2_span()):
        ok = ok and is_subalgebra(g, span)
    try:
        restrict(cat.bialgebra_s(), cat.s1_span())
        ok = False
    except NotClosedUnderCobracket:
        pass
    criterion(7, "image spans, subalgebra closures, non-restriction", ok)


def test_criterion_08_dual_brackets():
    ok = cat.dual_matches_table(dual_bracket(cat.s_bialgebra_1()),
                                cat.dual_bracket_table_1())
    ok = ok and cat.dual_matches_table(dual_bracket(cat.s_bialgebra_2()),
                                       cat.dual_bracket_table_2())
    ok = ok and cat.dual_matches_table(dual_bracket(cat.t_bialgebra_1()),
                                       cat.dual_bracket_table_t1())
    d1 = dual_bracket(cat.s_bialgebra_1())
    ok = ok and d1.bracket_basis(2, 2) == 2 * cat.dual_s_basis().vector("h*")
    d2 = dual_bracket(cat.s_bialgebra_2())
    ok = ok and d2.bracket_basis(2, 2) == -2 * cat.dual_s_basis().vector("h*")
    dt1 = dual_bracket(cat.t_bialgebra_1())
    ok = ok and dt1.bracket_basis(2, 3) == cat.dual_s_basis().vector("x*")
    isos = [(cat.dual_iso_1(), d1, cat.s_algebra()),
            (cat.dual_iso_2(), d2, cat.s_algebra()),
            (cat.dual_iso_t1(), dt1, cat.t_algebra()),
            (cat.dual_iso_t2(), dual_bracket(cat.t_bialgebra_2()),
             cat.t_algebra())]
    for iso, src, tgt in isos:
        ok = ok and iso.is_bijective()
        ok = ok and check_homomorphism(iso, src, tgt).passed
    criterion(8, "dual bracket tables and the four self-duality maps", ok)


def test_criterion_09_opposite_relation():
    ok = cat.s_bialgebra_1().delta == -cat.s_bialgebra_2().delta
    ok = ok and cat.t_bialgebra_1().delta == -cat.t_bialgebra_2().delta
    rep = check_bialgebra_homomorphism(cat.negation_map(cat.s_basis()),
                                       cat.s_bialgebra_2(),
                                       opposite(cat.s_bialgebra_1()))
    ok = ok and rep.passed and cat.negation_map(cat.s_basis()).is_bijective()
    criterion(9, "opposite cobrackets and the opposite-structure iso", ok)


def test_criterion_10_double_identifications():
    gram = cat.supertrace_gram()
    ok = gram.pair(V("E23"), V("E32")) == 1
    ok = ok and gram.pair(V("E13"), V("E31")) == 1
    rep_s = identify(cat.double_of_s(), cat.bialgebra_f(),
                     cat.double_s_identification(), gram)
    rep_t = identify(cat.double_of_t(), cat.bialgebra_s(),
                     cat.double_t_identification(), gram)
    ok = ok and rep_s.passed and rep_t.passed
    criterion(10, "both doubles identify with the ambient bialgebras", ok)


def test_criterion_11_manin_triples():
    ok = (check_manin_triple(cat.manin_triple_s()).passed
          and check_manin_triple(cat.manin_triple_t()).passed)
    criterion(11, "both Manin triples verify", ok)


def test_criterion_12_canonical_r():
    ok = (check_canonical_r(cat.double_of_s()).passed
          and check_canonical_r(cat.double_of_t()).passed)
    criterion(12, "canonical r reproduces delta; symmetric part invariant", ok)


def test_criterion_13_cross_derivation():
    ok = True
    for bial in (cat.s_bialgebra_1(), cat.s_bialgebra_2(),
                 cat.t_bialgebra_1(), cat.t_bialgebra_2()):
        ok = ok and (dual_bracket(bial).constants
                     == pairing_dual_bracket(bial).constants)
    criterion(13, "constant-exchange dual equals pairing dual (4 cases)", ok)


def test_criterion_14_property_suite():
    g = cat.sl21()
    rng = random.Random(414)
    ok = True

    for _ in range(100):
        parity = rng.randint(0, 1)
        entries = {}
        for _ in range(rng.randint(1, 6)):
            i, j = rng.randrange(8), rng.randrange(8)
            if (B.parity(i) + B.parity(j)) % 2 == parity:
                entries[(i, j)] = Q(rng.randint(-5, 5), rng.randint(1, 4))
        t = Tensor2(B, B, entries)
        r = t - super_swap(t)
        delta = coboundary_0(g, r)
        ok = ok and all(super_swap(v) == v.scale(-1)
                        for v in delta.values.values())
        ok = ok and is_cocycle_1(g, delta).passed

    for _ in range(25):
        consts = dict(g.constants)
        i, j = rng.randrange(8), rng.randrange(8)
        while i == j:
            j = rng.randrange(8)
        k = rng.randrange(8)
        consts[(i, j, k)] = consts.get((i, j, k), Q(0)) + Q(rng.randint(1, 7))
        rep = Superalgebra(B, consts).validate()
        ok = ok and (not rep.passed) and bool(rep.first_failure().detail)

    for _ in range(50):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        pool_a = [i for i in range(8) if B.parity(i) == pa]
        pool_b = [i for i in range(8) if B.parity(i) == pb]
        a = sum((Q(rng.randint(-3, 3)) * B.vector(rng.choice(pool_a))
                 for _ in range(2)), B.zero())
        b = sum((Q(rng.randint(-3, 3)) * B.vector(rng.choice(pool_b))
                 for _ in range(2)), B.zero())
        sign = -((-1) ** (pa * pb))
        ok = ok and wedge(a, b) == wedge(b, a).scale(sign)
        t = tensor(a, b)
        ok = ok and super_swap(super_swap(t)) == t
        ok = ok and _cycle_fixed(alt_s(_triple(rng)))

    criterion(14, "randomized skew/cocycle, rejection and sign laws", ok)


def _triple(rng):
    from superbialg.graded import Tensor
    entries = {}
    for _ in range(3):
        key = (rng.randrange(8), rng.randrange(8), rng.randrange(8))
        entries[key] = Q(rng.randint(-3, 3))
    return Tensor(B, entries, 3)


def _cycle_fixed(s):
    from superbialg.graded import Tensor
    shifted = {}
    for (i, j, k), c in s.entries.items():
        sign = (-1) ** (B.parity(i) * (B.parity(j) + B.parity(k)))
        key = (j, k, i)
        shifted[key] = shifted.get(key, Q(0)) + sign * c
    return Tensor(B, shifted, 3) == s
