"""The one stored table of a Superalgebra and the integer realizations.

A `Superalgebra` stores `int_table` = (D, num), num[i][j] = {k: C(i,j,k) D}
with D the lcm of the denominators, derives `constants` from it, and reads
`bracket` and `bracket_basis` off it.  Here the views of `from_half_table`
are compared with `oracles.mirror_half_table`, the super-antisymmetric
mirror written in Fractions, and every builder's table with the one the
public constructor makes from the same constants.  A `MatrixRealization`
keeps its nonzero entries as ints over one denominator; its dense `images`
must be the Fraction matrices of its input.  The input checks of both keep the
exceptions and messages they raised when the tables were Fractions.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superbialg import catalog as cat
from superbialg.algebra import (
    MatrixRealization, Superalgebra, from_matrices, gram_matrix,
)
from superbialg.double import build_double
from superbialg.graded import Element, GradedBasis, Tensor2

import oracles
from slmn import realization, standard

Q = Fraction
# coprime denominators, and two large primes
DENOMINATORS = (1, 2, 3, 5, 7, 12, 2 ** 61 - 1, 10 ** 20 + 39)


@st.composite
def half_tables(draw):
    """(basis, half table): odd diagonals, zero entries (which must vanish
    from the table), ints and Fractions over coprime and large
    denominators."""
    n = draw(st.integers(1, 6))
    par = draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
    basis = GradedBasis([f"e{i}" for i in range(n)], par)
    keys = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)
            if i != j or par[i]]
    value = st.one_of(
        st.integers(-4, 4),
        st.builds(Q, st.integers(-10 ** 25, 10 ** 25),
                  st.sampled_from(DENOMINATORS)),
        st.sampled_from((0, Q(0), Q(3, 7) - Q(6, 14))))
    if not keys:
        return basis, {}
    return basis, draw(st.dictionaries(st.sampled_from(keys), value,
                                       max_size=12))


def _check_views(g: Superalgebra, full: dict) -> None:
    """The views of g against the full Fraction table, and its int_table
    against D = the lcm of the denominators."""
    n = g.dim()
    assert g.constants == full
    for i in range(n):
        for j in range(n):
            row = {k: c for (a, b, k), c in full.items() if (a, b) == (i, j)}
            assert g.bracket_basis(i, j) == Element(g.basis, row)
    # bracket sums ints over the table and its arguments' numerators
    x = Element(g.basis, {i: Q(1, i + 2) for i in range(n)})
    y = Element(g.basis, {i: Q(i + 1, 3) for i in range(n)})
    want = {}
    for (i, j, k), c in full.items():
        want[k] = want.get(k, 0) + x.entries[i] * y.entries[j] * c
    assert g.bracket(x, y) == Element(g.basis, want)
    den = lcm(*(c.denominator for c in full.values()))
    num = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in full.items():
        num[i][j][k] = int(c * den)
    assert g.int_table == (den, num)


@given(half_tables())
@example((GradedBasis(["a", "b"], [1, 1]),
          {(0, 0, 1): Q(1, 2 ** 61 - 1), (0, 1, 0): Q(-3, 10 ** 20 + 39),
           (1, 1, 0): 0, (0, 1, 1): Q(2, 6)}))
@settings(max_examples=150, deadline=None)
def test_half_table_views_match_the_fraction_mirror(case):
    basis, half = case
    full = oracles.mirror_half_table(basis, half)
    g = Superalgebra.from_half_table(basis, half)
    _check_views(g, full)
    assert Superalgebra(basis, full).int_table == g.int_table


@pytest.mark.parametrize("name", ["sl21", "s", "t", "sl(3|2)", "double of s",
                                  "double of sl(3|1)"])
def test_each_builder_stores_the_table_the_constructor_makes(name):
    # from_matrices, from_half_table and build_double hand their integer
    # table over unchecked; it must be the table, D reduced to the lcm of
    # the denominators, that the public constructor makes of the constants
    g = {"sl21": cat.sl21, "s": cat.s_algebra, "t": cat.t_algebra,
         "sl(3|2)": lambda: standard(3, 2)[0],
         "double of s": lambda: cat.double_of_s().underlying,
         "double of sl(3|1)": lambda: build_double(standard(3, 1)[2]).underlying,
         }[name]()
    _check_views(g, dict(g.constants))
    assert Superalgebra(g.basis, g.constants).int_table == g.int_table


@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=9)
                .filter(lambda q: q != 0), min_size=8, max_size=8))
@settings(max_examples=25, deadline=None)
def test_rescaled_realization_table_is_reduced(scales):
    base = cat.sl21_realization()
    real = MatrixRealization(base.basis, base.m, base.n,
                             [[[s * x for x in row] for row in mat]
                              for s, mat in zip(scales, base.images)])
    g = from_matrices(real)
    assert g.int_table == Superalgebra(g.basis, g.constants).int_table


def _realizations():
    """(name, basis, m, n, input matrices): integer and rational inputs."""
    sl32 = realization(3, 2)
    int32 = [[[int(x) for x in row] for row in mat] for mat in sl32.images]
    sl21 = cat.sl21_realization()
    scales = [Q(1, 2), Q(-3), Q(2, 7), 1, Q(5, 3), Q(-1, 11), 4, Q(7, 2)]
    rational = [[[s * x for x in row] for row in mat]
                for s, mat in zip(scales, sl21.images)]
    strings = [[[str(x) for x in row] for row in mat] for mat in rational]
    mixed = [[[int(x) if x.denominator == 1 else x for x in row]
              for row in mat] for mat in rational]
    return [("integer sl(3|2)", sl32.basis, 3, 2, int32),
            ("rational sl(2|1)", sl21.basis, 2, 1, rational),
            ("strings", sl21.basis, 2, 1, strings),
            ("ints and Fractions", sl21.basis, 2, 1, mixed)]


@pytest.mark.parametrize("case", _realizations(), ids=lambda c: c[0])
def test_realization_images_are_the_fraction_matrices_of_the_input(case):
    _, basis, m, n, images = case
    real = MatrixRealization(basis, m, n, images)
    want = [[[Q(x) for x in row] for row in mat] for mat in images]
    assert real.images == want
    assert all(type(x) is Fraction
               for mat in real.images for row in mat for x in row)
    assert real.den == lcm(*(x.denominator for mat in want for row in mat
                             for x in row))


@pytest.mark.parametrize("case", _realizations(), ids=lambda c: c[0])
def test_gram_matrix_is_the_supertrace_of_the_input_products(case):
    _, basis, m, n, images = case
    dense = [[[Q(x) for x in row] for row in mat] for mat in images]

    def supertrace(a, b):
        p = oracles.matmul(a, b)
        return sum(p[r][r] if r < m else -p[r][r] for r in range(m + n))
    want = [[supertrace(a, b) for b in dense] for a in dense]
    assert gram_matrix(MatrixRealization(basis, m, n, images)).gram == want


B = GradedBasis(["h", "e", "x", "y"], [0, 0, 1, 1])


def _matrix(cells=(), rows=3, cols=3):
    out = [[0] * cols for _ in range(rows)]
    for (r, c), v in cells:
        out[r][c] = v
    return out


ZERO = _matrix()
FLOAT = ("TypeError", "floating point is not allowed; use Fraction or int")
SIZE = ("ValueError", "matrix size must be (m+n) x (m+n)")
REJECTED = {
    # the public constructor: floats, index type and range
    "float": (lambda: Superalgebra(B, {(0, 1, 1): 1.0}), FLOAT),
    "float zero": (lambda: Superalgebra(B, {(0, 1, 1): 0.0}), FLOAT),
    "bool index": (lambda: Superalgebra(B, {(True, 1, 1): 1}),
                   ("IndexError", "index (True, 1, 1) out of range for basis")),
    "float index": (lambda: Superalgebra(B, {(0, 1.0, 1): 1}),
                    ("IndexError", "index (0, 1.0, 1) out of range for basis")),
    "index out of range": (
        lambda: Superalgebra(B, {(0, 1, 4): 1}),
        ("IndexError", "index (0, 1, 4) out of range for basis")),
    "negative index": (
        lambda: Superalgebra(B, {(-1, 1, 1): 1}),
        ("IndexError", "index (-1, 1, 1) out of range for basis")),
    "zero at a bad index": (
        lambda: Superalgebra(B, {(0, 1, 9): 0}),
        ("IndexError", "index (0, 1, 9) out of range for basis")),
    # the half table: i <= j, no even diagonal, and the same index checks
    "half float": (lambda: Superalgebra.from_half_table(B, {(0, 1, 1): 0.5}),
                   FLOAT),
    "half i > j": (lambda: Superalgebra.from_half_table(B, {(1, 0, 1): 1}),
                   ("ValueError", "half table may only list i <= j, got (1, 0)")),
    "even diagonal": (
        lambda: Superalgebra.from_half_table(B, {(1, 1, 0): 1}),
        ("ValueError", "[e_1, e_1] must vanish for even e_1")),
    "even diagonal at index 0": (
        lambda: Superalgebra.from_half_table(B, {(0, 1, 1): 1, (0, 0, 1): 2}),
        ("ValueError", "[e_0, e_0] must vanish for even e_0")),
    "half i > j at a zero entry": (
        lambda: Superalgebra.from_half_table(B, {(0, 1, 1): 1, (3, 2, 0): 0}),
        ("ValueError", "half table may only list i <= j, got (3, 2)")),
    "half bool index": (
        lambda: Superalgebra.from_half_table(B, {(True, 2, 2): 1}),
        ("IndexError", "index (True, 2, 2) out of range for basis")),
    "half k out of range": (
        lambda: Superalgebra.from_half_table(B, {(0, 1, 7): 1}),
        ("IndexError", "index (0, 1, 7) out of range for basis")),
    "half j out of range": (
        lambda: Superalgebra.from_half_table(B, {(0, 5, 1): 1}),
        ("IndexError", "index (0, 5, 1) out of range for basis")),
    "half negative indices": (
        lambda: Superalgebra.from_half_table(B, {(-2, -1, 0): 1}),
        ("IndexError", "index (-2, -1, 0) out of range for basis")),
    "half float index": (
        lambda: Superalgebra.from_half_table(B, {(1.0, 2, 2): 1}),
        ("IndexError", "index (1.0, 2, 2) out of range for basis")),
    "half zero at a bad index": (
        lambda: Superalgebra.from_half_table(B, {(0, 9, 1): 0}),
        ("IndexError", "index (0, 9, 1) out of range for basis")),
    # realizations: one matrix per vector, entries, sizes, block grading
    "matrix count": (lambda: MatrixRealization(B, 2, 1, [ZERO] * 3),
                     ("ValueError", "need one matrix per basis vector")),
    "float entry": (lambda: MatrixRealization(
        B, 2, 1, [_matrix([((0, 1), 1)]), ZERO, ZERO,
                  _matrix([((0, 2), 0.5)])]), FLOAT),
    "float zero entry": (lambda: MatrixRealization(
        B, 2, 1, [ZERO, ZERO, ZERO, _matrix([((0, 2), 0.0)])]), FLOAT),
    "short row": (lambda: MatrixRealization(
        B, 2, 1, [ZERO, [[0, 0], [0, 0, 0], [0, 0, 0]], ZERO, ZERO]), SIZE),
    "short matrix": (lambda: MatrixRealization(
        B, 2, 1, [ZERO, _matrix(rows=2), ZERO, ZERO]), SIZE),
    "even off the diagonal blocks": (
        lambda: MatrixRealization(B, 2, 1, [_matrix([((0, 2), 1)]), ZERO,
                                            ZERO, ZERO]),
        ("ValueError", "matrix for h violates the (m|n) block grading at "
                       "entry (0, 2)")),
    "odd on a diagonal block": (
        lambda: MatrixRealization(B, 2, 1, [ZERO, ZERO,
                                            _matrix([((2, 2), Q(1, 2))]),
                                            ZERO]),
        ("ValueError", "matrix for x violates the (m|n) block grading at "
                       "entry (2, 2)")),
    "grading before a later size": (
        lambda: MatrixRealization(B, 2, 1, [_matrix([((0, 2), 1)]),
                                            _matrix(rows=2), ZERO, ZERO]),
        ("ValueError", "matrix for h violates the (m|n) block grading at "
                       "entry (0, 2)")),
    "a float before any size": (
        lambda: MatrixRealization(B, 2, 1, [_matrix(rows=2), ZERO, ZERO,
                                            _matrix([((0, 2), 2.5)])]),
        FLOAT),
}


@pytest.mark.parametrize("name", list(REJECTED))
def test_bad_input_raises_what_it_raised(name):
    build, (cls, message) = REJECTED[name]
    with pytest.raises(Exception) as raised:
        build()
    assert (type(raised.value).__name__, str(raised.value)) == (cls, message)


def test_zero_half_table_entries_are_dropped_unchecked():
    # a zero entry at indices in range is dropped before its diagonal is
    # read (a zero at a bad index raises, as "half zero at a bad index")
    g = Superalgebra.from_half_table(B, {(0, 0, 1): Q(0), (0, 1, 1): 1})
    assert g.constants == {(0, 1, 1): 1, (1, 0, 1): -1}


def _kernel_pairs(g, delta):
    """The pairs (a, b) at which the pairwise kernel sums a term."""
    from superbialg.cohomology import _pairwise_residuals
    n = g.dim()
    return {divmod(key // (n * n), n)
            for key in _pairwise_residuals(g, delta, delta.parity)}


def test_antisymmetry_is_scanned_once_per_algebra(monkeypatch):
    # validate, is_cocycle_1 and check_compatibility share one loop over
    # the sorted pairs of sl(3|2); a passing table renders no pair, and the
    # pairwise kernel sums over sorted pairs only, the diagonal included
    from superbialg.bialgebra import check_compatibility
    from superbialg.cohomology import coboundary_0, is_cocycle_1
    r = standard(3, 2)[1]
    g = from_matrices(realization(3, 2))  # fresh: nothing scanned yet
    delta = coboundary_0(g, r)
    loops, rendered = [], []
    first = Superalgebra.__dict__["_first_antisymmetry_failure"]
    render = Superalgebra._antisymmetry_failure

    def looped(self):
        loops.append(self)
        return first.func(self)

    def counted(self, i, j):
        rendered.append((i, j))
        return render(self, i, j)
    once = cached_property(looped)
    once.__set_name__(Superalgebra, "_first_antisymmetry_failure")
    monkeypatch.setattr(Superalgebra, "_first_antisymmetry_failure", once)
    monkeypatch.setattr(Superalgebra, "_antisymmetry_failure", counted)
    for rep in (g.validate(), is_cocycle_1(g, delta),
                check_compatibility(g, delta)):
        assert rep.passed
    assert loops == [g] and rendered == []
    pairs = _kernel_pairs(g, delta)
    assert all(a <= b for a, b in pairs)
    assert {(a, a) for a in range(g.dim())} & pairs


def test_a_table_that_is_not_antisymmetric_scans_every_pair():
    # [h, e] = e, [e, h] = 0 and f(e) = h (x) e: every pair before (e, h)
    # holds, and R(e, h) = h . f(e) = h (x) e
    from superbialg.bialgebra import check_compatibility
    from superbialg.cohomology import (
        Cochain, _first_pairwise_failure, is_cocycle_1,
    )
    g = Superalgebra(B, {(0, 1, 1): 1})
    f = Cochain(g, 1, 0, {(1,): Tensor2(B, B, {(0, 1): 1})})
    assert (1, 0) in _kernel_pairs(g, f)
    assert _first_pairwise_failure(g, f, 0) == (1, 0)
    assert is_cocycle_1(g, f).checks[0].detail == (
        "pair (e, h): f([a,b]) = 0 but action side = -h⊗e")
    assert check_compatibility(g, f).checks[0].detail == (
        "pair (e, h): 0 != -h⊗e")
    first = g.validate().first_failure()
    assert (first.name, first.detail) == (
        "super antisymmetry", "[e,h] = 0 but sign rule wants -e")
