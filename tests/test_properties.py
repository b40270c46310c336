"""Randomized laws: field axioms, sign identities, cocommutator properties.

Structured random data comes from hypothesis; the bulk cocommutator sweep
uses a seeded RNG so the advertised 100-tensor run stays deterministic.
"""

import random
from fractions import Fraction as Q
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from superbialg import catalog as cat
from superbialg.algebra import Superalgebra
from superbialg.cohomology import Cochain, canonical_tuple, coboundary_0, is_cocycle_1
from superbialg.bialgebra import r_of_f, solve_f_from_r
from superbialg.graded import (
    Element, LinearMap, Tensor, Tensor2, invert_matrix, rank, rref,
    super_swap, wedge,
)

import oracles
from oracles import alt_s, dense, matmul, rref_reference, sparse

B = cat.sl21_basis()

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)
small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)
indices = st.integers(min_value=0, max_value=7)


# -- scalar field laws --------------------------------------------------------

@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert a + (b + c) == (a + b) + c
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


# -- homogeneous elements and sign laws ----------------------------------------

def homogeneous_elements(parity):
    pool = [i for i in range(8) if B.parity(i) == parity]
    return st.dictionaries(st.sampled_from(pool), small_rationals,
                           min_size=1, max_size=3).map(
        lambda d: Element(B, d))


@given(st.integers(0, 1), st.integers(0, 1), st.data())
def test_wedge_sign_law(pa, pb, data):
    a = data.draw(homogeneous_elements(pa))
    b = data.draw(homogeneous_elements(pb))
    sign = -((-1) ** (pa * pb))
    assert wedge(a, b) == wedge(b, a).scale(sign)


def tensors2(max_size=6):
    return st.dictionaries(st.tuples(indices, indices), small_rationals,
                           max_size=max_size).map(lambda d: Tensor2(B, B, d))


@given(tensors2())
def test_super_swap_involution(t):
    assert super_swap(super_swap(t)) == t


@given(tensors2())
def test_wedge_like_skew_part(t):
    skew = t - super_swap(t)
    assert super_swap(skew) == skew.scale(-1)


def tensors3():
    triple = st.tuples(indices, indices, indices)
    return st.dictionaries(triple, small_rationals, max_size=5).map(
        lambda d: Tensor(B, d, 3))


@given(tensors3())
def test_alt_fixed_by_signed_cycle(t):
    s = alt_s(t)
    shifted = {}
    for (i, j, k), c in s.entries.items():
        sign = (-1) ** (B.parity(i) * (B.parity(j) + B.parity(k)))
        key = (j, k, i)
        shifted[key] = shifted.get(key, Q(0)) + sign * c
    assert Tensor(B, shifted, 3) == s


@given(st.lists(st.tuples(indices, indices), min_size=1, max_size=3))
def test_canonical_storage_roundtrip(args_pairs):
    val = Tensor2(B, B, {(0, 1): 1})
    i, j = args_pairs[0]
    key, sign = canonical_tuple(B, (i, j))
    if key is None:
        return
    c = Cochain(cat.sl21(), 2, 0, {(i, j): val})
    back = c.value(i, j)
    assert back == val


# -- exact row reduction against an independent oracle ---------------------------

@given(st.lists(st.lists(small_rationals, min_size=4, max_size=4),
                min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_rank_matches_sympy(rows):
    ours = rank(rows)
    theirs = sympy.Matrix([[sympy.Rational(c) for c in r]
                           for r in rows]).rank()
    assert ours == theirs


matrix_entries = st.one_of(st.just(Q(0)), small_rationals)


@st.composite
def rational_matrices(draw, max_rows=8, max_cols=12, square=False):
    """Rational matrices, 1 x n and n x 1 included, with some rows replaced
    by combinations of others (zero rows among them) and some columns
    zeroed."""
    nrows = draw(st.one_of(st.just(1), st.integers(1, max_rows)))
    ncols = nrows if square else draw(st.one_of(st.just(1),
                                                 st.integers(1, max_cols)))
    one_row = st.lists(matrix_entries, min_size=ncols, max_size=ncols)
    m = draw(st.lists(one_row, min_size=nrows, max_size=nrows))
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows // 2)):
        a, b = draw(matrix_entries), draw(matrix_entries)
        j, k = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 3)):
        for row in m:
            row[c] = Q(0)
    return m


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(c) for c in r] for r in rows])


def _fractions(rows):
    return [[Q(int(x.p), int(x.q)) for x in r] for r in rows.tolist()]


def _canonical(row):
    """A dense row as ints of gcd 1 with a positive leading entry."""
    den = lcm(*(x.denominator for x in row))
    ints = [int(x * den) for x in row]
    h = gcd(*ints)
    return [x // (-h if next(x for x in ints if x) < 0 else h) for x in ints]


def _is_canonical(red, pivots):
    """Integer rows, each of gcd 1 with a positive pivot."""
    return (all(type(x) is int for r in red for x in r.values())
            and all(gcd(*r.values()) == 1 and r[p] > 0
                    for r, p in zip(red, pivots)))


@given(rational_matrices())
@settings(max_examples=80, deadline=None)
def test_rref_matches_sympy_and_the_reference(rows):
    red, pivots = rref(sparse(rows), range(len(rows[0])))
    assert _is_canonical(red, pivots)
    red = dense(red, len(rows[0]))
    theirs, their_pivots = _sympy(rows).rref()
    theirs = _fractions(theirs)
    assert pivots == list(their_pivots)
    assert red == [_canonical(r) for r in theirs[:len(pivots)]]
    assert all(x == 0 for r in theirs[len(pivots):] for x in r)
    reference, reference_pivots = rref_reference(rows)
    assert (red, pivots) == ([_canonical(r) for r in reference],
                             reference_pivots)


@given(rational_matrices(), st.data())
@settings(max_examples=40, deadline=None)
def test_rref_over_shuffled_tuple_keys_matches_the_reference(rows, data):
    # the columns are keyed (c // 3, c % 3) and sought in a shuffled order:
    # the reduction is that of the dense matrix with its columns permuted
    ncols = len(rows[0])
    keys = [divmod(c, 3) for c in range(ncols)]
    order = data.draw(st.permutations(range(ncols)))
    red, pivots = rref([{keys[c]: x for c, x in enumerate(r) if x}
                        for r in rows], [keys[c] for c in order])
    theirs, their_pivots = rref_reference([[r[c] for c in order]
                                           for r in rows])
    assert _is_canonical(red, pivots)
    assert pivots == [keys[order[p]] for p in their_pivots]
    assert [[row.get(keys[c], 0) for c in order] for row in red] == [
        _canonical(r) for r in theirs]


@given(rational_matrices(max_rows=6, square=True))
@settings(max_examples=60, deadline=None)
def test_invert_matrix_matches_sympy(m):
    theirs = _sympy(m)
    if theirs.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            invert_matrix(sparse(m))
    else:
        assert dense(invert_matrix(sparse(m)), len(m)) == _fractions(
            theirs.inv())


def test_invert_matrix_rejects_a_singular_matrix():
    m = [[Q(1), Q(2), Q(0)], [Q(0), Q(1, 3), Q(1)], [Q(2), Q(13, 3), Q(1)]]
    with pytest.raises(ValueError, match="singular"):
        invert_matrix(sparse(m))  # row 3 = 2 row 1 + row 2
    m[2][2] = Q(2)
    assert dense(invert_matrix(sparse(m)), 3) == _fractions(_sympy(m).inv())


# 8 x 8 matrices come from a seeded generator: hypothesis spends most of
# such a test drawing 64 fractions

def _random_matrix(rng, n=8):
    """A sparse-ish n x n rational matrix; in about half the draws one row
    is a combination of two others, so it is singular."""
    m = [[Q(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.6
          else Q(0) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        i, j, k = rng.sample(range(n), 3)
        a = rng.randint(-3, 3)
        m[i] = [a * x + y for x, y in zip(m[j], m[k])]
    return m


def _random_invertible(rng, n=8):
    """L U, L unit lower triangular and U upper triangular with a nonzero
    diagonal, both read off one random matrix."""
    m = _random_matrix(rng, n)
    lower = [[Q(1) if i == j else m[i][j] if j < i else Q(0)
              for j in range(n)] for i in range(n)]
    upper = [[Q(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) if i == j
              else m[j][i] if j > i else Q(0)
              for j in range(n)] for i in range(n)]
    return matmul(lower, upper)


def _map_of(m) -> LinearMap:
    """The map of B whose image of e_j is column j of the dense m."""
    return LinearMap(B, B, [Element(B, dict(enumerate(col)))
                            for col in zip(*m)])


def test_is_bijective_agrees_with_the_reference_rank():
    rng = random.Random(8)
    seen = set()
    for _ in range(60):
        m = _random_matrix(rng)
        bijective = oracles.rank(m) == 8
        assert _map_of(m).is_bijective() == bijective
        seen.add(bijective)
    assert seen == {True, False}


def _inverse_reference(m):
    """m^{-1} from one Gauss-Jordan reduction of [m | 1], m invertible."""
    n = len(m)
    red, pivots = rref_reference([list(row) + [Q(int(i == j))
                                               for j in range(n)]
                                  for i, row in enumerate(m)])
    assert pivots[:n] == list(range(n))
    return [row[n:] for row in red]


def _tensor_of(m) -> Tensor2:
    return Tensor2(B, B, {(i, j): x for i, row in enumerate(m)
                          for j, x in enumerate(row)})


def test_solve_f_from_r_matches_a_dense_product():
    # (f (x) 1) omega = r reads R = F Omega with F[k][i] the e_k entry of
    # f(e_i), so F = R Omega^{-1}
    rng = random.Random(9)
    for _ in range(30):
        om, rm = _random_invertible(rng), _random_matrix(rng)
        omega, r = _tensor_of(om), _tensor_of(rm)
        f = solve_f_from_r(r, omega)
        assert dense([im.entries for im in f.images], 8) == [
            list(col) for col in zip(*matmul(rm, _inverse_reference(om)))]
        assert r_of_f(f, omega) == r


# -- the 100-tensor cocommutator sweep -------------------------------------------

def _random_skew_tensor(rng) -> Tensor2:
    # parity-homogeneous by construction; even and odd cases both occur
    parity = rng.randint(0, 1)
    entries = {}
    for _ in range(rng.randint(1, 6)):
        i, j = rng.randrange(8), rng.randrange(8)
        if (B.parity(i) + B.parity(j)) % 2 != parity:
            continue
        entries[(i, j)] = Q(rng.randint(-5, 5), rng.randint(1, 4))
    t = Tensor2(B, B, entries)
    return t - super_swap(t)


def test_unitary_r_matrices_give_skew_cobrackets():
    # any half-invariant-tensor-plus-skew r satisfies the unitarity law,
    # and its cobracket values must come out super-skew, exhaustively
    g = cat.sl21()
    om = cat.omega()
    rng = random.Random(77)
    from superbialg.bialgebra import check_unitarity, cocommutator
    for _ in range(10):
        entries = {}
        for _ in range(rng.randint(1, 5)):
            i, j = rng.randrange(8), rng.randrange(8)
            if (B.parity(i) + B.parity(j)) % 2 == 0:
                entries[(i, j)] = Q(rng.randint(-4, 4), rng.randint(1, 3))
        t = Tensor2(B, B, entries)
        r = om.scale(Q(1, 2)) + (t - super_swap(t))
        assert check_unitarity(r, om).passed
        delta = cocommutator(g, r)
        for v in delta.values.values():
            assert super_swap(v) == v.scale(-1)


def test_cocommutators_of_skew_tensors_are_skew_cocycles():
    g = cat.sl21()
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        r = _random_skew_tensor(rng)
        assert super_swap(r) == r.scale(-1)
        delta = coboundary_0(g, r)
        for v in delta.values.values():
            assert super_swap(v) == v.scale(-1)
        assert is_cocycle_1(g, delta).passed
        checked += 1
    assert checked == 100


# -- random perturbations are rejected -------------------------------------------

def test_perturbed_constants_always_rejected():
    g = cat.sl21()
    rng = random.Random(99)
    for _ in range(20):
        consts = dict(g.constants)
        i, j = rng.randrange(8), rng.randrange(8)
        while i == j:
            i, j = rng.randrange(8), rng.randrange(8)
        k = rng.randrange(8)
        eps = Q(rng.randint(1, 5))
        # touch one side of the pair only: super antisymmetry must break
        consts[(i, j, k)] = consts.get((i, j, k), Q(0)) + eps
        rep = Superalgebra(B, consts).validate()
        assert not rep.passed
        assert rep.first_failure().detail


def test_adjoint_action_commutes_with_super_swap():
    # equivariance of the permutation map, randomized, on homogeneous t
    # (coboundary_0 takes one parity; t and T(t) share it, and so the sign
    # of d(t)(a) = (-1)^{|a||t|} a . t)
    g = cat.sl21()
    par = B.parities
    rng = random.Random(5)
    for p in range(20):
        t = Tensor2(B, B, {(u, v): Q(rng.randint(-3, 3), rng.randint(1, 2))
                           for u, v in ((rng.randrange(8), rng.randrange(8))
                                        for _ in range(4))
                           if par[u] ^ par[v] == p % 2})
        left, right = coboundary_0(g, t), coboundary_0(g, super_swap(t))
        for a in range(8):
            moved = left.value(a)
            assert (None if moved is None else super_swap(moved)) \
                == right.value(a)
