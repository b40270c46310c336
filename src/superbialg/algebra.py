"""Lie superalgebras presented by exact structure constants.

A `Superalgebra` stores one table, [e_i, e_j] = sum_k C(i,j,k) e_k as ints:
`int_table` = (D, num), num[i][j] = {k: C(i,j,k) D}, D the lcm of the
denominators.  Every constructor builds it in ints; `constants` is its one
Fraction view, and `bracket` and `bracket_basis` read Elements off it.
Super antisymmetry, Jacobi, the one action on g (x) g (`_act_into`, behind
`cohomology.coboundary_0`, which decides ad-invariance), form
invariance, the pairing, `is_subalgebra` and `check_homomorphism` sum ints
over it and over the integer forms of a Gram matrix and of a map
(`BilinearForm.int_gram`, `LinearMap.int_images`): a sum is the true one
times a known positive integer, so "is zero" and "equal" (cross-multiplied)
are exact, and Fractions (`graded._over`) come back only in results and
counterexamples.

Each check here is a `VerificationReport.scan` over basis tuples, or
finds its first counterexample in one loop and renders only that.  Grading
compares each row's keys with the basis vectors of its parity, as sets.
Super antisymmetry is decided once per algebra, in one loop over the
sorted pairs, and its first failure, or None, is cached for `validate`
and for the pairwise kernel of `cohomology`.  Once it holds, super
Jacobi's signed cyclic sum J(a,b,c) changes at most by a sign under a
permutation, so its first failure in product order is a sorted triple,
which `_first_jacobi_failure` finds from the nonzero constants: for each a
in turn, it adds the rotations of every a <= b <= c into one integer
accumulator keyed (b, c, m), and stops at the first a with a nonzero sum,
at its least (b, c).  When antisymmetry fails, every triple is scanned in
product order instead.  `check_invariance` compares the two sides of
<[a,b],c> = <a,[b,c]> one dict over c per pair.

A `MatrixRealization` keeps its images as ints over one denominator E.
`from_matrices` re-derives the constants from their integer commutators,
and `gram_matrix` the supertrace form str(rho(x) rho(y)), used for Casimir
elements and Manin triples, from integer products.  `from_matrices` and
`_span_brackets` (for `bialgebra.restrict` and `_leaves_span`, the first
bracket outside a span, behind `is_subalgebra`, `check_manin_triple` and
the subalgebra fixtures) factor a span once with `graded.factor_span` and
read every bracket off it in ints, each checked exactly against its
reconstruction.  `is_solvable` and `BilinearForm.is_nondegenerate` reduce
sparse integer rows with `rref`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product, starmap
from math import gcd
from typing import Mapping, Sequence

from .graded import (
    EVEN, ODD, BasisMismatch, Element, GradedBasis, LinearMap,
    _add_into, _combine, _denominator, _int_coordinates, _numerators, _over,
    _proportional, _same_basis, as_scalar, factor_span, koszul, rref,
)
from .report import VerificationReport


class NotClosed(ValueError):
    """A family of matrices / vectors is not closed under the bracket."""


class DependentVectors(ValueError):
    """Vectors required to be linearly independent are not."""


def _nonzero(acc: dict) -> dict:
    return {k: c for k, c in acc.items() if c != 0}


def _check_index(n: int, key: tuple) -> None:
    """Each index must be an int proper in range: 1.0 and True hash like 1."""
    if not all(type(x) is int and 0 <= x < n for x in key):
        raise IndexError(f"index {key} out of range for basis")


class Superalgebra:
    """A finite-dimensional Lie superalgebra over the rationals, stored as
    `int_table` (see the module docstring)."""

    def __init__(self, basis: GradedBasis,
                 constants: Mapping[tuple[int, int, int], Fraction]):
        n = len(basis)
        entries = {}
        for (i, j, k), c in constants.items():
            _check_index(n, (i, j, k))
            c = c if type(c) is int else as_scalar(c)
            if c != 0:
                entries[(i, j, k)] = c
        den = _denominator([entries])
        num = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j, k), c in entries.items():
            num[i][j][k] = c.numerator * (den // c.denominator)
        self.basis, self.int_table = basis, (den, num)

    @classmethod
    def _of(cls, basis: GradedBasis, den: int, num: list[list[dict[int, int]]],
            half: bool = False) -> "Superalgebra":
        """The algebra of the table num over den (nonzero ints, in range),
        with den reduced to the lcm of the denominators; nothing is checked.
        A `half` table lists i <= j only: each row [e_j, e_i], i < j, is set
        in place to the super-antisymmetric mirror of [e_i, e_j]."""
        par = basis.parities
        for i, rs in enumerate(num if half else ()):
            for j in range(i + 1, len(rs)):
                keep = par[i] and par[j]
                num[j][i] = {k: x if keep else -x for k, x in rs[j].items()}
        if den > 1 and (g := gcd(den, *(x for rs in num for row in rs
                                         for x in row.values()))) > 1:
            den //= g
            num = [[{k: x // g for k, x in row.items()} for row in rs]
                   for rs in num]
        alg = cls.__new__(cls)
        alg.basis, alg.int_table = basis, (den, num)
        return alg

    @classmethod
    def from_half_table(cls, basis: GradedBasis,
                        half: Mapping[tuple[int, int, int], Fraction]
                        ) -> "Superalgebra":
        """Build from entries with i <= j; i > j follows by antisymmetry.

        The public constructor checks and scales the entries; a diagonal
        entry (i, i) is only accepted for odd e_i.
        """
        if bad := next(((i, j) for i, j, _ in half if i > j), None):
            raise ValueError(f"half table may only list i <= j, got {bad}")
        den, num = cls(basis, half).int_table
        if (i := next((i for i, p in enumerate(basis.parities)
                       if p == EVEN and num[i][i]), None)) is not None:
            raise ValueError(f"[e_{i}, e_{i}] must vanish for even e_{i}")
        return cls._of(basis, den, num, half=True)

    @cached_property
    def constants(self) -> dict[tuple[int, int, int], Fraction]:
        """{(i, j, k): C(i,j,k)}, the nonzero constants as Fractions."""
        den, num = self.int_table
        return {(i, j, k): Fraction(x, den) for i, rs in enumerate(num)
                for j, row in enumerate(rs) for k, x in row.items()}

    def bracket_basis(self, i: int, j: int) -> Element:
        den, num = self.int_table
        return Element.wrap(self.basis, _over(num[i][j], den))

    def _int_bracket(self, x: Mapping[int, int],
                     y: Mapping[int, int]) -> dict[int, int]:
        """D [x, y], nonzero entries, for integer coefficient dicts."""
        rows = self.int_table[1]
        acc: dict[int, int] = {}
        for i, cx in x.items():
            ri = rows[i]
            for j, cy in y.items():
                _add_into(acc, ri[j], cx * cy)
        return _nonzero(acc)

    def bracket(self, x: Element, y: Element) -> Element:
        _same_basis(x.basis, self.basis)
        _same_basis(y.basis, self.basis)
        dx, dy = _denominator([x.entries]), _denominator([y.entries])
        acc = self._int_bracket(_numerators(x.entries, dx),
                                _numerators(y.entries, dy))
        return Element.wrap(self.basis, _over(acc, self.int_table[0] * dx * dy))

    def dim(self) -> int:
        return len(self.basis)

    # -- axioms ------------------------------------------------------------

    def validate(self) -> VerificationReport:
        """Check grading consistency, super antisymmetry and super Jacobi.

        Each axiom is decided exhaustively and reports its first
        counterexample in product order.  Jacobi's comes from
        `_first_jacobi_failure` on an antisymmetric table, and from a scan
        of every triple otherwise; `_jacobi_sum` renders it.
        """
        rep = VerificationReport("superalgebra axioms")
        par = self.basis.parities
        lab = self.basis.labels
        den, num = self.int_table
        n = self.dim()

        def misgraded(i, j, k):
            return (f"C({lab[i]},{lab[j]} -> {lab[k]}) = "
                    f"{Fraction(num[i][j][k], den)} breaks the grading")
        # the basis vectors of each parity; a row lies in one of them
        within = [{k for k, p in enumerate(par) if p == q} for q in (EVEN, ODD)]
        bad = next(((i, j, min(row.keys() - within[par[i] ^ par[j]]))
                    for i, rs in enumerate(num) for j, row in enumerate(rs)
                    if not row.keys() <= within[par[i] ^ par[j]]), None)
        rep.add("grading consistency", bad is None, bad and misgraded(*bad))

        failure = self._first_antisymmetry_failure
        antisymmetric = rep.add("super antisymmetry", failure is None, failure)

        # even self-brackets must vanish (odd ones may not)
        rep.scan("even self-brackets vanish", product(range(n)),
                 lambda i: (f"[{lab[i]},{lab[i]}] = {self.bracket_basis(i, i)}"
                            f" != 0" if par[i] == EVEN and num[i][i] else None))

        def jacobi_fails(a, b, c):
            acc = self._jacobi_sum(a, b, c)
            return (f"Jacobi fails on ({lab[a]},{lab[b]},{lab[c]}): cyclic "
                    f"sum = {Element.wrap(self.basis, _over(acc, den ** 2))}"
                    if any(acc.values()) else None)
        if antisymmetric:  # at most one triple: the kernel's first failure
            triples = filter(None, [self._first_jacobi_failure()])
        else:
            triples = product(range(n), repeat=3)
        rep.scan("super Jacobi", triples, jacobi_fails)
        return rep

    def _antisymmetry_failure(self, i: int, j: int) -> str:
        """The detail of a pair whose row [e_j, e_i] is not the mirror
        super antisymmetry derives from [e_i, e_j], naming both rows."""
        keep = self.basis.parities[i] and self.basis.parities[j]
        den, num = self.int_table
        lab = self.basis.labels
        want = Element.wrap(self.basis, _over(
            num[i][j] if keep else {k: -c for k, c in num[i][j].items()}, den))
        return (f"[{lab[j]},{lab[i]}] = {self.bracket_basis(j, i)} but sign "
                f"rule wants {want}")

    @cached_property
    def _first_antisymmetry_failure(self) -> str | None:
        """The detail of the first sorted pair i <= j that breaks super
        antisymmetry, or None.  Mirroring is an involution, so (i, j) fails
        iff (j, i) does, and the first failure in product order is sorted.
        The table never changes, so `validate` and the pairwise kernel of
        `cohomology` share one loop."""
        par = self.basis.parities
        num = self.int_table[1]
        for i, rs in enumerate(num):
            for j in range(i, len(rs)):
                row, back = rs[j], num[j][i]
                if len(row) != len(back):
                    return self._antisymmetry_failure(i, j)
                s = 1 if par[i] & par[j] else -1
                for k, c in row.items():
                    if back.get(k) != s * c:
                        return self._antisymmetry_failure(i, j)
        return None

    def _jacobi_sum(self, a: int, b: int, c: int) -> dict[int, int]:
        """Signed cyclic sum of [x,[y,z]] over (a,b,c), (b,c,a), (c,a,b),
        with [x,[y,z]] = sum_k C(y,z,k) [x, e_k], summed over `int_table`:
        D^2 times the true sum."""
        par = self.basis.parities
        rows = self.int_table[1]
        acc: dict[int, int] = {}
        get = acc.get
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            rx, odd = rows[x], par[x] & par[z]  # the Koszul sign of x past z
            for k, ck in rows[y][z].items():
                if odd:
                    ck = -ck
                for m, v in rx[k].items():
                    acc[m] = get(m, 0) + ck * v
        return acc

    def _first_jacobi_failure(self) -> tuple[int, int, int] | None:
        """The first sorted triple with a nonzero Jacobi sum, or None, on an
        antisymmetric table (see the module docstring).  `nz[i]` lists the
        nonzero rows [e_i, e_j] by j, `cols[k]` the rows [e_x, e_k] by x,
        and `into[m]` the constants C(i,j,m) with i <= j; each term is
        signed as in `_jacobi_sum`, so acc[b, c, m] is D^2 J(a,b,c)_m."""
        par = self.basis.parities
        nz = [[(j, row) for j, row in enumerate(rs) if row]
              for rs in self.int_table[1]]
        cols, into = [[] for _ in nz], [[] for _ in nz]
        for x, rx in enumerate(nz):
            for k, row in rx:
                cols[k].append((x, row))
                if k >= x:
                    for m, v in row.items():
                        into[m].append((x, k, v))
        for a, pa in enumerate(par):
            acc: dict[tuple[int, int, int], int] = {}
            get = acc.get
            for k, ra in nz[a]:  # s(a,c) [e_a, [e_b, e_c]]
                for b, c, y in into[k]:
                    if b >= a:
                        y = -y if pa & par[c] else y
                        for m, v in ra.items():
                            acc[b, c, m] = get((b, c, m), 0) + y * v
            for c, row in cols[a]:  # s(b,a) [e_b, [e_c, e_a]]
                if c >= a:
                    for k, y in row.items():
                        for b, rb in cols[k]:
                            if b > c:
                                break
                            if b >= a:
                                yb = -y if par[b] & pa else y
                                for m, v in rb.items():
                                    acc[b, c, m] = get((b, c, m), 0) + yb * v
            for b, row in nz[a]:  # s(c,b) [e_c, [e_a, e_b]]
                if b >= a:
                    for k, y in row.items():
                        for c, rc in cols[k]:
                            if c >= b:
                                yc = -y if par[c] & par[b] else y
                                for m, v in rc.items():
                                    acc[b, c, m] = get((b, c, m), 0) + yc * v
            if failing := [key[:2] for key, v in acc.items() if v]:
                return (a, *min(failing))
        return None

    def is_solvable(self) -> bool:
        """Does the derived series reach zero?

        Each step either stops shrinking (the series stabilizes above zero)
        or drops the dimension, so at most dim g steps are taken.
        """
        columns = range(self.dim())
        current = [{i: 1} for i in columns]
        while True:
            brackets = [v for a in current for b in current
                        if (v := self._int_bracket(a, b))]
            if not brackets:
                return True
            if len(red := rref(brackets, columns)[0]) == len(current):
                return False
            current = red


# ---------------------------------------------------------------------------
# matrix realizations
# ---------------------------------------------------------------------------

Matrix = list[list[Fraction]]
SparseMatrix = dict[int, dict[int, int]]   # row -> {column: entry}


def _product_into(acc: dict, a: SparseMatrix, b: SparseMatrix,
                  sign: int) -> None:
    """acc[(r, s)] += sign * (AB)[r][s]."""
    for r, arow in a.items():
        for t, x in arow.items():
            brow = b.get(t)
            if brow:
                for s, y in brow.items():
                    acc[(r, s)] = acc.get((r, s), 0) + sign * x * y


def _supertrace_product(m: int, a: SparseMatrix, b: SparseMatrix) -> int:
    """str(AB): the even diagonal block counts +, the odd block -."""
    acc = 0
    for r, arow in a.items():
        for t, x in arow.items():
            y = b.get(t, {}).get(r)
            if y is not None:
                acc += x * y if r < m else -x * y
    return acc


class MatrixRealization:
    """Images of the basis vectors as (m+n) x (m+n) block-graded matrices.

    Even vectors must be block diagonal, odd vectors block off-diagonal,
    relative to the (m|n) splitting.  `sparse[i]` holds the nonzero entries
    of the i-th image by row, as ints over one denominator E (`den`); the
    dense Fraction `images` are derived on demand.
    """

    def __init__(self, basis: GradedBasis, m: int, n: int,
                 images: Sequence[Matrix]):
        if len(images) != len(basis):
            raise ValueError("need one matrix per basis vector")
        self.basis, self.m, self.n = basis, m, n
        # every entry is read (a float raises) before any size is checked
        rows = [[(len(row), {c: x for c, v in enumerate(row)
                             if (x := v if type(v) is int else as_scalar(v))})
                 for row in mat] for mat in images]
        self.den = _denominator(nz for mat in rows for _, nz in mat)
        d = m + n
        self.sparse: list[SparseMatrix] = []
        for idx, mat in enumerate(rows):
            if len(mat) != d or any(width != d for width, _ in mat):
                raise ValueError("matrix size must be (m+n) x (m+n)")
            sp = {r: _numerators(nz, self.den)
                  for r, (_, nz) in enumerate(mat) if nz}
            self.sparse.append(sp)
            p = basis.parity(idx)
            for r, row in sp.items():
                for c in row:
                    if ((r < m) != (c < m)) != (p == ODD):
                        raise ValueError(
                            f"matrix for {basis.labels[idx]} violates the "
                            f"(m|n) block grading at entry {(r, c)}")

    @property
    def images(self) -> list[Matrix]:
        """The images as dense Fraction matrices."""
        d = range(self.m + self.n)
        return [[[Fraction(sp.get(r, {}).get(c, 0), self.den) for c in d]
                 for r in d] for sp in self.sparse]


def from_matrices(real: MatrixRealization) -> Superalgebra:
    """Derive abstract structure constants from a faithful realization.

    The integer images (E times the images) are factored once
    (`graded.factor_span`); the commutator of those of e_i, e_j, i < j or
    i = j odd, is E^2 [e_i, e_j], so its integer coordinates read off the
    factorization are q E times the constants, and the half table is
    mirrored as ints over q E.  Raises DependentVectors if the images are
    linearly dependent, NotClosed on the first commutator in product order
    that leaves their span (always such a pair: [e_j, e_i] leaves it
    exactly when [e_i, e_j] does).
    """
    d = real.m + real.n
    n = len(real.basis)
    flat = [{(r, c): x for r, row in sp.items() for c, x in row.items()}
            for sp in real.sparse]
    num = [[{} for _ in range(n)] for _ in range(n)]
    if not any(flat):
        # an all-zero realization still pins down the abelian algebra
        return Superalgebra._of(real.basis, 1, num)
    span = factor_span(flat, list(product(range(d), repeat=2)))
    if span is None:
        raise DependentVectors("matrix images are linearly dependent")
    par = real.basis.parities
    sp = real.sparse
    for i in range(n):
        for j in range(i if par[i] == ODD else i + 1, n):
            acc: dict[tuple[int, int], int] = {}
            _product_into(acc, sp[i], sp[j], 1)
            _product_into(acc, sp[j], sp[i], -koszul(par[i], par[j]))
            coords = _int_coordinates(span, _nonzero(acc))
            if coords is None:
                raise NotClosed(
                    f"[{real.basis.labels[i]}, {real.basis.labels[j]}] is "
                    f"not in the span of the images")
            num[i][j] = coords
    return Superalgebra._of(real.basis, span[2] * real.den, num, half=True)


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------

class BilinearForm:
    """A bilinear form on a graded space, stored as a dense Gram matrix."""

    def __init__(self, basis: GradedBasis, gram: Matrix):
        n = len(basis)
        if len(gram) != n or any(len(r) != n for r in gram):
            raise ValueError("gram matrix must be square over the basis")
        self.basis = basis
        self.gram = [[as_scalar(x) for x in row] for row in gram]

    @cached_property
    def int_gram(self) -> tuple[int, list[dict[int, int]]]:
        """(T, rows[i] = {j: G[i][j] T}): the Gram matrix as ints over one T."""
        rows = [{j: x for j, x in enumerate(row) if x} for row in self.gram]
        den = _denominator(rows)
        return den, [_numerators(row, den) for row in rows]

    def _int_pair(self, x: Mapping[int, int], y: Mapping[int, int]) -> int:
        """T <x, y> for integer coefficient dicts x, y."""
        return sum(c * y.get(j, 0)
                   for j, c in _combine(self.int_gram[1], x).items())

    def pair(self, x: Element, y: Element) -> Fraction:
        _same_basis(x.basis, self.basis)
        _same_basis(y.basis, self.basis)
        dx, dy = _denominator([x.entries]), _denominator([y.entries])
        return Fraction(self._int_pair(_numerators(x.entries, dx),
                                       _numerators(y.entries, dy)),
                        self.int_gram[0] * dx * dy)

    def is_supersymmetric(self) -> bool:
        par = self.basis.parities
        rows = self.int_gram[1]
        return all(x == koszul(par[i], par[j]) * rows[j].get(i, 0)
                   for i, row in enumerate(rows) for j, x in row.items())

    def is_nondegenerate(self) -> bool:
        n = len(self.basis)
        return len(rref(self.int_gram[1], range(n))[1]) == n


def gram_matrix(real: MatrixRealization) -> BilinearForm:
    """Gram matrix of the supertrace form in the realization's basis; each
    product of integer images sums ints, E^2 times its value."""
    sp, scale, zero = real.sparse, real.den ** 2, Fraction(0)
    return BilinearForm(real.basis, [
        [Fraction(x, scale) if (x := _supertrace_product(real.m, a, b))
         else zero for b in sp] for a in sp])


# ---------------------------------------------------------------------------
# actions and structural checks
# ---------------------------------------------------------------------------

def _act_into(acc: dict, g: Superalgebra, i: int,
              entries: Mapping[tuple[int, int], int], c: int) -> None:
    """acc += c * (e_i . t) for the rank-2 tensor t with these integer
    entries, over `g.int_table`: acc gains D times the value.

    The signed Leibniz rule on one basis vector:
    e_i . (u (x) v) = [e_i,u] (x) v + (-1)^{|e_i||u|} u (x) [e_i,v].
    """
    par = g.basis.parities
    odd = par[i]
    ri = g.int_table[1][i]
    get = acc.get
    for (u, v), x in entries.items():
        cc = c * x
        for k, y in ri[u].items():
            acc[(k, v)] = get((k, v), 0) + cc * y
        if odd and par[u]:
            cc = -cc
        for k, y in ri[v].items():
            acc[(u, k)] = get((u, k), 0) + cc * y


def _span_brackets(g: Superalgebra, vectors: Sequence[Element],
                   what: str) -> tuple:
    """The span of the vectors factored once (`graded.factor_span`, s times
    the vectors as ints) and a lazy scan of their brackets in product order:
    (a, b, q D s^2 times the coordinates of [v_a, v_b], None outside the
    span).  Dependent vectors raise DependentVectors at once."""
    span = factor_span([v.entries for v in vectors], range(g.dim()))
    if span is None:
        raise DependentVectors(f"{what} needs independent vectors")
    ints = span[1]

    def coordinates(a, b):
        _same_basis(vectors[a].basis, g.basis)
        _same_basis(vectors[b].basis, g.basis)
        return a, b, _int_coordinates(span, g._int_bracket(ints[a], ints[b]))
    return span, starmap(coordinates, product(range(len(vectors)), repeat=2))


def _leaves_span(g: Superalgebra, vectors: Sequence[Element],
                 what: str) -> str | None:
    """"[u, v] leaves the span" for the first bracket of the vectors, in
    product order, outside their span, or None (`_span_brackets`)."""
    return next((f"[{vectors[a]}, {vectors[b]}] leaves the span"
                 for a, b, coords in _span_brackets(g, vectors, what)[1]
                 if coords is None), None)


def is_subalgebra(g: Superalgebra, vectors: Sequence[Element]) -> bool:
    """Is the span of the (independent) vectors closed under the bracket?"""
    return _leaves_span(g, vectors, "subalgebra test") is None


def check_invariance(g: Superalgebra, form: BilinearForm) -> VerificationReport:
    """Check <[a,b],c> = <a,[b,c]> over all basis triples.

    Both sides add ints over `g.int_table` (D) and `form.int_gram` (T), D T
    times their values, each summed once per basis pair:
    left[a][b] = {c: sum_k C(a,b,k) G[k][c]}, and right[a][b] = {c: <a,[b,c]>}
    gathers sum_k G[a][k] C(b,c,k) while the pair (b, c) is visited.  The
    two sides are compared one dict per pair (a, b); only the first unequal
    pair is scanned over c, for the counterexample.
    """
    _same_basis(form.basis, g.basis)
    rep = VerificationReport("form invariance")
    lab = g.basis.labels
    n = g.dim()
    den, num = g.int_table
    t, rows = form.int_gram
    cols = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            cols[c][r] = x
    left = [[{} for _ in range(n)] for _ in range(n)]
    right = [[{} for _ in range(n)] for _ in range(n)]
    for a, b in product(range(n), repeat=2):
        for k, c in num[a][b].items():
            _add_into(left[a][b], rows[k], c)
            for x, y in cols[k].items():  # G[x][k] C(a,b,k) into <x,[a,b]>
                rx = right[x][a]
                rx[b] = rx.get(b, 0) + c * y

    def unequal(i, j):
        if _nonzero(left[i][j]) == _nonzero(right[i][j]):
            return None
        for k in range(n):
            lhs, rhs = left[i][j].get(k, 0), right[i][j].get(k, 0)
            if lhs != rhs:
                break
        return (f"<[{lab[i]},{lab[j]}],{lab[k]}> = {Fraction(lhs, den * t)} "
                f"but <{lab[i]},[{lab[j]},{lab[k]}]> = {Fraction(rhs, den * t)}")
    rep.scan("invariance <[a,b],c> = <a,[b,c]>", product(range(n), repeat=2),
             unequal)
    return rep


def check_homomorphism(phi: LinearMap, source: Superalgebra,
                       target: Superalgebra) -> VerificationReport:
    """Check phi([a,b]) = [phi(a), phi(b)] on all pairs, plus parity; the
    sides add ints over the `int_table`s (D, D') and `phi.int_images` (E),
    D E and E^2 D' times their values."""
    if phi.source != source.basis or phi.target != target.basis:
        raise BasisMismatch("map does not connect the two algebras")
    rep = VerificationReport("bracket homomorphism")
    rep.add("parity preserving", phi.is_parity_preserving())
    lab = source.basis.labels
    den, num = source.int_table
    e, ims = phi.int_images
    sl, sr = den * e, e * e * target.int_table[0]

    def breaks(i, j):
        lhs = _combine(ims, num[i][j])
        rhs = target._int_bracket(ims[i], ims[j])
        return (None if _proportional(lhs, sl, rhs, sr) else
                f"phi[{lab[i]},{lab[j]}] = "
                f"{Element.wrap(target.basis, _over(lhs, sl))} but "
                f"[phi {lab[i]}, phi {lab[j]}] = "
                f"{Element.wrap(target.basis, _over(rhs, sr))}")
    rep.scan("bracket preserved", product(range(source.dim()), repeat=2),
             breaks)
    return rep
