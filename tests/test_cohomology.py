"""Cochain storage, the differential, cocycle checks."""

import random
from fractions import Fraction as Q
from itertools import product

import pytest

from superbialg import catalog as cat
from superbialg import cohomology
from superbialg.algebra import Superalgebra
from superbialg.bialgebra import Bialgebra, check_compatibility, check_cojacobi
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
    val = T({(0, 1): 1})
    c = Cochain(cat.sl21(), 2, 0, {(3, 2): val})  # unordered even pair
    assert c.value(2, 3) == val.scale(-1)
    assert c.value(3, 2) == val


def test_write_at_repeated_even_tuple_requires_zero():
    with pytest.raises(ValueError):
        Cochain(cat.sl21(), 2, 0, {(2, 2): T({(0, 1): 1})})
    # storing zero there is fine
    assert Cochain(cat.sl21(), 2, 0, {(2, 2): Tensor2.zero(B)}).is_zero()


def test_values_of_one_cochain_lie_in_one_module():
    # every value lies in g (x) g: an element of g is refused
    with pytest.raises(ValueError, match="rank 2, not 1"):
        Cochain(cat.sl21(), 1, 0, {(0,): T({(2, 3): 1}),
                                   (1,): Element(B, {2: 1})})


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
        c = Cochain(g, 1, 0, {(a,): _random_tensor(rng, 3) for a in range(8)})
        assert coboundary(g, coboundary(g, c)).is_zero()


def test_d_squared_zero_for_odd_parity_cochain():
    g = cat.sl21()
    c = Cochain(g, 1, 1, {(B.index("E12"),): tensor(V("E13"), V("E11+E33")),
                          (B.index("E13"),): tensor(V("E12"), V("E21"))})
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
    fixed = tensor(V("E12"), V("E12"))
    c = Cochain(g, 1, 0, {(a,): fixed for a in range(8)})
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
    c = Cochain(g, 1, 0, {(B.index("E12"),): tensor(V("E13"), V("E13"))})
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


# -- one integer form and one pairwise verdict per cochain --------------------

def _counted(monkeypatch, name):
    calls = []
    real = getattr(cohomology, name)
    monkeypatch.setattr(cohomology, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_cochain_is_read_in_integers_once(monkeypatch):
    # `Cochain.int_values` is the one caller of `_denominator` here
    g = cat.sl21()
    delta = Cochain(g, 1, 0, cat.delta_f().values)  # nothing cached yet
    calls = _counted(monkeypatch, "_denominator")
    Bialgebra(g, delta)
    assert check_compatibility(g, delta).passed
    assert check_cojacobi(g, delta).passed
    assert len(calls) == 1


def test_the_bialgebra_and_compatibility_share_one_pairwise_sum(monkeypatch):
    g = cat.sl21()
    delta = Cochain(g, 1, 0, cat.delta_f().values)
    calls = _counted(monkeypatch, "_pairwise_residuals")
    Bialgebra(g, delta)
    assert check_compatibility(g, delta).passed
    assert len(calls) == 1


@pytest.mark.parametrize("order", [(check_compatibility, is_cocycle_1),
                                   (is_cocycle_1, check_compatibility)],
                         ids=["compatibility-first", "cocycle-first"])
def test_one_cochain_keeps_a_verdict_per_parity(order):
    # an odd coboundary is a cocycle at its parity 1 and fails the
    # pairwise condition at parity 0, where compatibility checks it
    g = cat.sl21()
    f = coboundary_0(g, tensor(V("E13"), V("E12")))
    reports = {check: str(check(g, f)) for check in order}
    assert reports == {
        is_cocycle_1: "1-cocycle: PASS\n  PASS pairwise super cocycle condition",
        check_compatibility:
            "cocycle compatibility: FAIL\n  FAIL delta([a,b]) matches the "
            "Leibniz expansion (pair (E11+E33, E31): 0 != "
            "-2*(E11+E33)⊗E12 + 2*E13⊗E32)"}


def test_one_cochain_keeps_a_verdict_per_algebra():
    # the same basis with [E11+E33, E12] = 2 E12: delta_f is no cocycle
    # there, whatever it is on sl(2,1)
    g = cat.sl21()
    delta = Cochain(g, 1, 0, cat.delta_f().values)
    assert is_cocycle_1(g, delta).passed
    consts = dict(g.constants)
    consts[(0, 2, 2)] += 1
    consts[(2, 0, 2)] -= 1
    h = Superalgebra(B, consts)
    rep = is_cocycle_1(h, delta)
    assert not rep.passed
    assert str(rep) == str(is_cocycle_1(h, Cochain(h, 1, 0, delta.values)))
    assert is_cocycle_1(g, delta).passed


def test_value_over_another_basis_is_refused():
    other = cat.s_basis()
    with pytest.raises(BasisMismatch):
        Cochain(cat.sl21(), 1, 0, {(0,): Tensor2(other, other, {(0, 1): 1})})


@pytest.mark.parametrize("check", [is_cocycle_1, coboundary,
                                   check_compatibility, check_cojacobi])
def test_cochain_over_another_algebra_is_refused(check):
    with pytest.raises(BasisMismatch):
        check(cat.s_algebra(), cat.delta_f())
