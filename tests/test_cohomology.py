"""Cochain storage, the differential, cocycle checks."""

import random
from fractions import Fraction as Q
from itertools import product

import pytest

from superbialg import catalog as cat
from superbialg.algebra import Superalgebra
from superbialg.bialgebra import check_compatibility, check_cojacobi
from superbialg.cohomology import (
    Cochain, canonical_tuple, canonical_tuples, coboundary, coboundary_0,
    is_cocycle_1,
)
from superbialg.graded import (
    BasisMismatch, Element, GradedBasis, Tensor2, tensor,
)

B = cat.sl21_basis()
V = cat.V


def T(entries):
    return Tensor2(B, B, entries)


# -- canonical storage ----------------------------------------------------------

def test_canonical_tuple_sorts_with_koszul_sign():
    # two odd indices swapped: sign +1 for odd-odd (minus times minus)
    key, sign = canonical_tuple(B, (5, 4))
    assert key == (4, 5) and sign == 1
    # even-even swap: plain alternation
    key, sign = canonical_tuple(B, (3, 2))
    assert key == (2, 3) and sign == -1
    # even-odd swap: also -1
    key, sign = canonical_tuple(B, (4, 2))
    assert key == (2, 4) and sign == -1


def test_repeated_even_index_is_zero():
    key, sign = canonical_tuple(B, (2, 2))
    assert key is None and sign == 0


def test_repeated_odd_index_is_allowed():
    key, sign = canonical_tuple(B, (4, 4))
    assert key == (4, 4) and sign == 1


def test_storage_roundtrip_signed():
    c = Cochain(cat.sl21(), 2, 0)
    val = T({(0, 1): 1})
    c.set_value((3, 2), val)  # unordered even pair
    assert c.value(2, 3) == val.scale(-1)
    assert c.value(3, 2) == val


def test_write_at_repeated_even_tuple_requires_zero():
    c = Cochain(cat.sl21(), 2, 0)
    with pytest.raises(ValueError):
        c.set_value((2, 2), T({(0, 1): 1}))
    c.set_value((2, 2), Tensor2.zero(B))  # storing zero there is fine
    assert c.is_zero()


def test_values_of_one_cochain_lie_in_one_module():
    # every value lies in g (x) g: an element of g is refused
    c = Cochain(cat.sl21(), 1, 0, {(0,): T({(2, 3): 1})})
    with pytest.raises(ValueError, match="rank 2, not 1"):
        c.set_value((1,), Element(B, {2: 1}))


@pytest.mark.parametrize("build", [
    lambda: GradedBasis(["a"], [1.7]),
    lambda: GradedBasis(["a"], ["1"]),
    lambda: GradedBasis(["a"], [True]),
    lambda: GradedBasis(["a"], [2]),
    lambda: Cochain(cat.sl21(), 1.5, 0),
    lambda: Cochain(cat.sl21(), -1, 0),
    lambda: Cochain(cat.sl21(), 1, 2),
    lambda: Cochain(cat.sl21(), 1, 1.0),
    lambda: Cochain(cat.sl21(), "1", 0),
], ids=["parity float", "parity string", "parity bool", "parity 2",
        "degree float", "degree negative", "cochain parity 2",
        "cochain parity float", "degree string"])
def test_constructors_refuse_parities_and_degrees_they_would_truncate(build):
    with pytest.raises(ValueError):
        build()


# sl(2,1), and a basis whose odd vectors are interleaved with the even ones
INTERLEAVED = GradedBasis(["a", "b", "c", "d", "e", "f"], [1, 0, 1, 0, 0, 1])


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("basis", [B, INTERLEAVED], ids=["sl21", "interleaved"])
def test_canonical_tuples_match_brute_force(basis, degree):
    # every argument tuple sorted, those forced to zero dropped
    sorts = (canonical_tuple(basis, args)
             for args in product(range(len(basis)), repeat=degree))
    want = sorted({key for key, sign in sorts if sign})
    assert canonical_tuples(basis, degree) == want
    if basis is B and degree == 2:  # pairs i <= j minus the four even diagonals
        assert len(want) == 36 - 4


# -- coboundary of 0-cochains ----------------------------------------------------

def test_coboundary0_at_E22E33():
    d = coboundary_0(cat.sl21(), cat.r_f())
    assert d.value(B.index("E22+E33")) == T({(4, 4): 2})


def test_coboundary0_of_omega_is_zero():
    assert coboundary_0(cat.sl21(), cat.omega()).is_zero()


def test_coboundary0_of_zero():
    assert coboundary_0(cat.sl21(), Tensor2.zero(B)).is_zero()


def test_coboundary0_of_odd_tensor_is_consistent():
    # the sign on odd arguments keeps the complex exact on odd 0-cochains
    g = cat.sl21()
    r = tensor(V("E12"), V("E13")) - tensor(V("E13"), V("E12"))
    assert r.parity() == 1
    d1 = coboundary_0(g, r)
    assert d1.parity == 1
    assert coboundary(g, d1).is_zero()
    assert is_cocycle_1(g, d1).passed


def test_coboundary0_rejects_mixed_parity():
    g = cat.sl21()
    mixed = tensor(V("E12"), V("E21")) + tensor(V("E12"), V("E13"))
    with pytest.raises(ValueError):
        coboundary_0(g, mixed)


# -- d squared is zero -----------------------------------------------------------

def _random_tensor(rng, n_entries=5, parity=None):
    entries = {}
    for _ in range(n_entries):
        i, j = rng.randrange(8), rng.randrange(8)
        if parity is not None and (B.parity(i) + B.parity(j)) % 2 != parity:
            continue
        entries[(i, j)] = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return T(entries)


def test_d_squared_zero_on_random_0_cochains():
    g = cat.sl21()
    rng = random.Random(7)
    for n in range(12):
        r = _random_tensor(rng, parity=n % 2)
        d1 = coboundary_0(g, r)
        assert coboundary(g, d1).is_zero()


def test_d_squared_zero_on_random_1_cochains_tensor_values():
    # arbitrary super-alternating 1-cochains, not just coboundaries
    g = cat.sl21()
    rng = random.Random(11)
    for _ in range(6):
        c = Cochain(g, 1, 0)
        for a in range(8):
            t = _random_tensor(rng, 3)
            if not t.is_zero():
                c.set_value((a,), t)
        assert coboundary(g, coboundary(g, c)).is_zero()


def test_d_squared_zero_for_odd_parity_cochain():
    g = cat.sl21()
    c = Cochain(g, 1, 1)
    c.set_value((B.index("E12"),), tensor(V("E13"), V("E11+E33")))
    c.set_value((B.index("E13"),), tensor(V("E12"), V("E21")))
    assert coboundary(g, coboundary(g, c)).is_zero()


def test_coboundary_of_zero_cochain():
    g = cat.sl21()
    assert coboundary(g, Cochain(g, 1, 0)).is_zero()


# -- cocycle checks --------------------------------------------------------------

def test_delta_f_is_a_cocycle():
    rep = is_cocycle_1(cat.sl21(), cat.delta_f())
    assert rep.passed


def test_delta_s_is_a_cocycle():
    assert is_cocycle_1(cat.sl21(), cat.delta_s()).passed


def test_constant_cochain_is_not_a_cocycle():
    g = cat.sl21()
    c = Cochain(g, 1, 0)
    fixed = tensor(V("E12"), V("E12"))
    for a in range(8):
        c.set_value((a,), fixed)
    rep = is_cocycle_1(g, c)
    assert not rep.passed
    assert [(ch.name, ch.detail) for ch in rep.checks] == [
        ("pairwise super cocycle condition",
         "pair (E11+E33, E22+E33): f([a,b]) = 0 but action side = "
         "4*E12⊗E12"),
    ]
    assert len(coboundary(g, c).values) == 28


def test_coboundaries_are_cocycles():
    g = cat.sl21()
    rng = random.Random(23)
    for n in range(6):
        r = _random_tensor(rng, parity=n % 2)
        rep = is_cocycle_1(g, coboundary_0(g, r))
        assert rep.passed


def test_cocycle_paths_agree_on_non_cocycles():
    # the pairwise condition and d(delta) = 0 fail together
    g = cat.sl21()
    c = Cochain(g, 1, 0)
    c.set_value((B.index("E12"),), tensor(V("E13"), V("E13")))
    assert coboundary(g, c).is_zero() == is_cocycle_1(g, c).passed


def test_checks_without_antisymmetry_name_an_unsorted_pair():
    # [E22+E33, E11+E33] gains an E11+E33 term that [E11+E33, E22+E33]
    # lacks: only the unsorted pair fails, so both pairwise checks must
    # scan in product order to find it
    b = cat.bialgebra_f()
    consts = dict(b.algebra.constants)
    consts[(1, 0, 0)] = consts.get((1, 0, 0), 0) + 1
    h = Superalgebra(B, consts)
    d = Cochain(h, 1, 0, dict(b.delta.values))
    cyc = is_cocycle_1(h, d)
    assert cyc.first_failure().detail == (
        "pair (E22+E33, E11+E33): f([a,b]) = -2*E23⊗E23 but action side = 0")
    comp = check_compatibility(h, d)
    assert comp.first_failure().detail == (
        "pair (E22+E33, E11+E33): -2*E23⊗E23 != 0")


def test_value_over_another_basis_is_refused():
    g = cat.sl21()
    other = cat.s_basis()
    c = Cochain(g, 1, 0)
    with pytest.raises(BasisMismatch):
        c.set_value((0,), Tensor2(other, other, {(0, 1): 1}))
        is_cocycle_1(g, c)


@pytest.mark.parametrize("check", [is_cocycle_1, coboundary,
                                   check_compatibility, check_cojacobi])
def test_cochain_over_another_algebra_is_refused(check):
    with pytest.raises(BasisMismatch):
        check(cat.s_algebra(), cat.delta_f())
