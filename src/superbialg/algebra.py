"""Lie superalgebras presented by exact structure constants.

A `Superalgebra` stores the full table [e_i, e_j] = sum_k C(i,j,k) e_k once,
as sparse rows `rows[i][j] = {k: C(i,j,k)}`; each row is also the coefficient
dict of the Element `bracket_basis(i, j)` returns.  Brackets, the adjoint
action on g (x) g, super Jacobi and form invariance all sum products of
these rows into one dict and build at most one result object.  Super
antisymmetry, Jacobi, the action on g (x) g (`_act_into`, also called by
`cohomology` and `bialgebra`), form invariance, the pairing, `is_subalgebra`
and `check_homomorphism` sum ints over `int_table` (D times the table) and
the integer forms of a Gram matrix and of a map (`BilinearForm.int_gram`,
`LinearMap.int_images`): a sum is the true one times a known positive
integer, so "is zero" and "equal" (cross-multiplied) are exact, and
Fractions (`graded._over`) come back only in results and counterexamples.

Each check here is a `VerificationReport.scan` over basis tuples.  Super
antisymmetry is tested in one place, `_antisymmetry_failure` on a sorted
pair, which both `validate` and `pairs_to_scan` scan.  Once it holds,
`validate` scans super Jacobi over sorted triples a <= b <= c only: the
signed cyclic sum is invariant under rotation and changes by a sign under
a transposition, so the sorted scan decides the axiom and its first
failure is also the first in product order.  `pairs_to_scan` gives the
pairwise checks the same shortcut over a <= b.  When antisymmetry fails,
every tuple is scanned in product order instead.  `check_invariance`
compares the two sides of <[a,b],c> = <a,[b,c]> one dict over c per pair.

Matrix realizations act as independent oracles: `from_matrices` re-derives
the constants from sparse graded commutators.  It, `is_subalgebra` and
`bialgebra.restrict` each factor their span once with `graded.factor_span`
and read every bracket off that one factorization; each coordinate vector
is checked exactly against its reconstruction, entry for entry.  The supertrace
form str(rho(x) rho(y)) gives the invariant bilinear form used for Casimir
elements and Manin triples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Mapping, Sequence

from .graded import (
    EVEN, ODD, Q, BasisMismatch, Element, GradedBasis, LinearMap, Tensor,
    _add_into, _combine, _denominator, _numerators, _over, _proportional,
    _same_basis, as_scalar, factor_span, koszul, rank, rref,
    span_coordinates,
)
from .report import VerificationReport


class NotClosed(ValueError):
    """A family of matrices / vectors is not closed under the bracket."""


class DependentVectors(ValueError):
    """Vectors required to be linearly independent are not."""


def _nonzero(acc: dict) -> dict:
    return {k: c for k, c in acc.items() if c != 0}


class Superalgebra:
    """A finite-dimensional Lie superalgebra over the rationals."""

    def __init__(self, basis: GradedBasis,
                 constants: Mapping[tuple[int, int, int], Fraction]):
        self.basis = basis
        n = len(basis)
        self.constants: dict[tuple[int, int, int], Fraction] = {}
        self.rows: list[list[dict[int, Fraction]]] = [
            [{} for _ in range(n)] for _ in range(n)]
        for (i, j, k), c in constants.items():
            # an index is an int proper: 1.0 and True hash like 1
            if not all(type(x) is int and 0 <= x < n for x in (i, j, k)):
                raise IndexError(f"index {(i, j, k)} out of range for basis")
            c = as_scalar(c)
            if c != 0:
                self.constants[(i, j, k)] = c
                self.rows[i][j][k] = c
        self._table = [[Element.wrap(basis, row) for row in rs]
                       for rs in self.rows]

    @classmethod
    def from_half_table(cls, basis: GradedBasis,
                        half: Mapping[tuple[int, int, int], Fraction]
                        ) -> "Superalgebra":
        """Build from entries with i <= j; i > j follows by antisymmetry.

        Diagonal entries (i, i) are only accepted for odd e_i.
        """
        constants: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), c in half.items():
            if i > j:
                raise ValueError(f"half table may only list i <= j, got {(i, j)}")
            c = as_scalar(c)
            if c == 0:
                continue
            pi, pj = basis.parity(i), basis.parity(j)
            if i == j:
                if pi == EVEN:
                    raise ValueError(
                        f"[e_{i}, e_{i}] must vanish for even e_{i}")
                constants[(i, i, k)] = constants.get((i, i, k), Q(0)) + c
            else:
                constants[(i, j, k)] = constants.get((i, j, k), Q(0)) + c
                constants[(j, i, k)] = (constants.get((j, i, k), Q(0))
                                        - koszul(pi, pj) * c)
        return cls(basis, constants)

    @cached_property
    def int_table(self) -> tuple[int, list[list[dict[int, int]]]]:
        """(D, num[i][j] = {k: C(i,j,k) D}): the table as ints over one D."""
        den = _denominator(row for rs in self.rows for row in rs)
        return den, [[_numerators(row, den) for row in rs] for rs in self.rows]

    def bracket_basis(self, i: int, j: int) -> Element:
        return self._table[i][j]

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
        acc: dict[int, Fraction] = {}
        for i, cx in x.entries.items():
            ri = self.rows[i]
            for j, cy in y.entries.items():
                _add_into(acc, ri[j], cx * cy)
        return Element(self.basis, acc)

    def dim(self) -> int:
        return len(self.basis)

    # -- axioms ------------------------------------------------------------

    def validate(self) -> VerificationReport:
        """Check grading consistency, super antisymmetry and super Jacobi.

        Exhaustive over all basis pairs and (up to the symmetry of the
        cyclic sum) all triples; the first counterexample of each axiom, in
        product order, is recorded in the report.
        """
        rep = VerificationReport("superalgebra axioms")
        par = self.basis.parities
        lab = self.basis.labels
        rows = self.rows
        n = self.dim()

        def misgraded(key, c):
            i, j, k = key
            return (None if par[k] == (par[i] + par[j]) % 2 else
                    f"C({lab[i]},{lab[j]} -> {lab[k]}) = {c} breaks the grading")
        rep.scan("grading consistency", sorted(self.constants.items()),
                 misgraded)

        antisymmetric = rep.scan("super antisymmetry", self._sorted_pairs(),
                                 self._antisymmetry_failure)

        # even self-brackets must vanish (odd ones may not)
        rep.scan("even self-brackets vanish", product(range(n)),
                 lambda i: (f"[{lab[i]},{lab[i]}] = {self._table[i][i]} != 0"
                            if par[i] == EVEN and rows[i][i] else None))

        # With antisymmetry, J on a permuted triple is +-J on the sorted
        # one, so J vanishes everywhere iff it does on a <= b <= c, and the
        # first failure in product order is a sorted triple.  Without it,
        # every triple is scanned in product order.
        if antisymmetric:
            triples = ((a, b, c) for a in range(n) for b in range(a, n)
                       for c in range(b, n))
        else:
            triples = product(range(n), repeat=3)

        scale = self.int_table[0] ** 2

        def jacobi_fails(a, b, c):
            acc = self._jacobi_sum(a, b, c)
            return (f"Jacobi fails on ({lab[a]},{lab[b]},{lab[c]}): cyclic "
                    f"sum = {Element.wrap(self.basis, _over(acc, scale))}"
                    if any(acc.values()) else None)
        rep.scan("super Jacobi", triples, jacobi_fails)
        return rep

    def _sorted_pairs(self):
        n = self.dim()
        return ((i, j) for i in range(n) for j in range(i, n))

    def _antisymmetry_failure(self, i: int, j: int) -> str | None:
        """None when the row [e_j, e_i] is the mirror super antisymmetry
        derives from [e_i, e_j]; otherwise a detail naming both rows.

        Mirroring is an involution, so (i, j) fails iff (j, i) does, and the
        first failure in product order has i <= j: only those need a scan.
        """
        keep = self.basis.parities[i] and self.basis.parities[j]

        def mirror(row):
            return row if keep else {k: -c for k, c in row.items()}
        num = self.int_table[1]
        if num[j][i] == mirror(num[i][j]):
            return None
        lab = self.basis.labels
        return (f"[{lab[j]},{lab[i]}] = {self._table[j][i]} but sign rule "
                f"wants {Element.wrap(self.basis, mirror(self.rows[i][j]))}")

    def pairs_to_scan(self):
        """Basis pairs that decide a pairwise condition R(a, b) = 0 whose
        residual obeys R(b, a) = +-R(a, b) under super antisymmetry.

        For an antisymmetric table these are the sorted pairs a <= b: the
        failing set is closed under swapping, so its first member in product
        order is sorted.  Otherwise every pair, in product order.
        """
        if any(self._antisymmetry_failure(i, j) for i, j in self._sorted_pairs()):
            return product(range(self.dim()), repeat=2)
        return self._sorted_pairs()

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

    def is_solvable(self) -> bool:
        """Does the derived series reach zero?

        Each step either stops shrinking (the series stabilizes above zero)
        or drops the dimension, so at most dim g steps are taken.
        """
        columns = range(self.dim())
        current = self.basis.vectors()
        while True:
            brackets = [self.bracket(a, b) for a in current for b in current]
            brackets = [v.entries for v in brackets if not v.is_zero()]
            if not brackets:
                return True
            red, _ = rref(brackets, columns)
            if len(red) == len(current):
                return False
            current = [Element.wrap(self.basis, row) for row in red]


# ---------------------------------------------------------------------------
# matrix realizations
# ---------------------------------------------------------------------------

Matrix = list[list[Fraction]]
SparseMatrix = dict[int, dict[int, Fraction]]   # row -> {column: entry}


def _product_into(acc: dict, a: SparseMatrix, b: SparseMatrix,
                  sign: int) -> None:
    """acc[(r, s)] += sign * (AB)[r][s]."""
    for r, arow in a.items():
        for t, x in arow.items():
            brow = b.get(t)
            if brow:
                for s, y in brow.items():
                    acc[(r, s)] = acc.get((r, s), 0) + (x * y if sign == 1
                                                        else -x * y)


def _supertrace_product(m: int, a: SparseMatrix, b: SparseMatrix) -> Fraction:
    """str(AB): the even diagonal block counts +, the odd block -."""
    acc = Q(0)
    for r, arow in a.items():
        for t, x in arow.items():
            y = b.get(t, {}).get(r)
            if y is not None:
                acc += x * y if r < m else -x * y
    return acc


class MatrixRealization:
    """Images of the basis vectors as (m+n) x (m+n) block-graded matrices.

    Even vectors must be block diagonal, odd vectors block off-diagonal,
    relative to the (m|n) splitting.  `sparse[i]` holds the nonzero
    entries of the i-th image by row.
    """

    def __init__(self, basis: GradedBasis, m: int, n: int,
                 images: Sequence[Matrix]):
        if len(images) != len(basis):
            raise ValueError("need one matrix per basis vector")
        self.basis = basis
        self.m = m
        self.n = n
        self.images = [[[as_scalar(x) for x in row] for row in mat]
                       for mat in images]
        d = m + n
        self.sparse: list[SparseMatrix] = []
        for idx, mat in enumerate(self.images):
            if len(mat) != d or any(len(r) != d for r in mat):
                raise ValueError("matrix size must be (m+n) x (m+n)")
            sp = {r: nz for r, row in enumerate(mat)
                  if (nz := {c: x for c, x in enumerate(row) if x})}
            self.sparse.append(sp)
            p = basis.parity(idx)
            for r, row in sp.items():
                for c in row:
                    if ((r < m) != (c < m)) != (p == ODD):
                        raise ValueError(
                            f"matrix for {basis.labels[idx]} violates the "
                            f"(m|n) block grading at entry {(r, c)}")


def from_matrices(real: MatrixRealization) -> Superalgebra:
    """Derive abstract structure constants from a faithful realization.

    The flattened images are factored once (`graded.factor_span`); the
    coordinates of [e_i, e_j], i < j or i = j odd, are read off it.  Raises
    DependentVectors if the images are linearly dependent, NotClosed on
    the first commutator in product order that leaves their span (always
    such a pair: [e_j, e_i] leaves it exactly when [e_i, e_j] does).
    """
    d = real.m + real.n
    flat = [{(r, c): x for r, row in sp.items() for c, x in row.items()}
            for sp in real.sparse]
    if not any(flat):
        # an all-zero realization still pins down the abelian algebra
        return Superalgebra(real.basis, {})
    span = factor_span(flat, list(product(range(d), repeat=2)))
    if span is None:
        raise DependentVectors("matrix images are linearly dependent")
    par = real.basis.parity
    sp = real.sparse
    half: dict[tuple[int, int, int], Fraction] = {}
    for i in range(len(sp)):
        for j in range(i if par(i) == ODD else i + 1, len(sp)):
            acc: dict[tuple[int, int], Fraction] = {}
            _product_into(acc, sp[i], sp[j], 1)
            _product_into(acc, sp[j], sp[i], -koszul(par(i), par(j)))
            coeffs = span_coordinates(span, _nonzero(acc))
            if coeffs is None:
                raise NotClosed(
                    f"[{real.basis.labels[i]}, {real.basis.labels[j]}] is "
                    f"not in the span of the images")
            for k, c in coeffs.items():
                half[(i, j, k)] = c
    return Superalgebra.from_half_table(real.basis, half)


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
        return rank(self.gram) == len(self.basis)


def gram_matrix(real: MatrixRealization) -> BilinearForm:
    """Gram matrix of the supertrace form in the realization's basis."""
    sp = real.sparse
    gram = [[_supertrace_product(real.m, a, b) for b in sp] for a in sp]
    return BilinearForm(real.basis, gram)


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


def adjoint_on_tensor2(g: Superalgebra, a: Element, t: Tensor) -> Tensor:
    """Signed Leibniz action of a on a rank-2 tensor.

    For homogeneous a:  a . (u (x) v) = [a,u] (x) v + (-1)^{|a||u|} u (x) [a,v];
    mixed a acts part by part.
    """
    _same_basis(t.basis, g.basis)
    _same_basis(a.basis, g.basis)
    da, dt = _denominator([a.entries]), _denominator([t.entries])
    ints = _numerators(t.entries, dt)
    acc: dict[tuple[int, int], int] = {}
    for i, ca in _numerators(a.entries, da).items():
        _act_into(acc, g, i, ints, ca)
    return t._with(_over(acc, g.int_table[0] * da * dt))


def is_subalgebra(g: Superalgebra, vectors: Sequence[Element]) -> bool:
    """Is the span of the (independent) vectors closed under the bracket?

    The span is factored once (with the vectors as ints, s times their
    values), and each bracket [a, b], in (a, b) order, adds ints over
    `g.int_table` and is read off that one factorization.
    """
    span = factor_span([v.entries for v in vectors], range(g.dim()))
    if span is None:
        raise DependentVectors("subalgebra test needs independent vectors")
    ints = span[1]  # the vectors as ints, s times their values

    def closed(a, b):
        _same_basis(vectors[a].basis, g.basis)
        _same_basis(vectors[b].basis, g.basis)
        return span_coordinates(span, g._int_bracket(ints[a], ints[b]))
    return all(closed(a, b) is not None
               for a, b in product(range(len(vectors)), repeat=2))


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
