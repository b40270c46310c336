"""Exact sparse linear algebra over Z/2-graded bases.

Values hold `fractions.Fraction`s: arithmetic is exact and equality is
structural (absent entry == zero entry).  Kernels that sum products add
integer numerators over one denominator (`_denominator`, `_numerators`,
`_over`).  Values are immutable by convention: no operation mutates its
inputs, and all constructors normalize by stripping zero coefficients.

One sparse type, `Tensor`, holds every graded value: an element of g has
rank 1, an r-matrix or a cobracket value rank 2, the coJacobi sum rank 3.
All legs of a tensor lie over one basis.  Arithmetic, equality, parity and
rendering are written once; `Element` and `Tensor2` only fix the rank and
keep their constructor signatures, and a rank-3 value is a plain `Tensor`.

Sign conventions (used throughout the package):

* Koszul rule: transposing two homogeneous objects a, b costs (-1)^{|a||b|}
  (`koszul`).
* wedge:        a ^ b = a (x) b - (-1)^{|a||b|} b (x) a
* super swap:   T(a (x) b) = (-1)^{|a||b|} b (x) a
* signed cycle: A(a (x) b (x) c) = a(x)b(x)c + (-1)^{|a|(|b|+|c|)} b(x)c(x)a
                + (-1)^{|c|(|a|+|b|)} c(x)a(x)b

The linear-algebra kernel is `rref`, fraction-free elimination of sparse
rows {column key: value}; its reduced rows are ints in one canonical form.
`factor_span` factors a span in one `rref` of the vectors, tagged by index:
the pivot keys and q P^{-1} (P the pivot block), as ints like the vectors.
`invert_matrix` reads a square matrix's inverse off it, the one place
that builds Fractions from a reduction, and `rank`, on a dense matrix,
serves only the tests and the benchmark.  `_int_coordinates`
reads an integer vector's coordinates off a factored span and rebuilds
them to decide membership exactly (`span_coordinates` for a Fraction
vector); `square_span` factors span (x) span, P^{-1} (x) P^{-1} on the
pivot pairs, with no second row reduction.  `LinearMap.int_images` is a
map's images as ints over one denominator, for the map checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

EVEN = 0
ODD = 1

Q = Fraction  # short alias used all over the package


class BasisMismatch(ValueError):
    """Raised when two operands live over different graded bases."""


def as_scalar(x) -> Fraction:
    """Coerce ints / strings like '2/3' to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point is not allowed; use Fraction or int")
    return Fraction(x)


def koszul(p: int, q: int) -> int:
    """(-1)^{pq}; only the parities of the integers p, q matter."""
    return -1 if p & q & 1 else 1


class GradedBasis:
    """An ordered basis of a Z/2-graded vector space.

    The ordering is fixed for the life of the object; two bases are equal
    iff they carry the same labels in the same order with the same parities.
    """

    def __init__(self, labels: Sequence[str], parities: Sequence[int]):
        labels = tuple(labels)
        parities = tuple(parities)
        if len(labels) == 0:
            raise ValueError("basis must contain at least one vector")
        if len(labels) != len(parities):
            raise ValueError("labels and parities must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        if not all(type(p) is int and p in (EVEN, ODD) for p in parities):
            raise ValueError("parities must be the ints 0 (even) or 1 (odd)")
        self.labels = labels
        self.parities = parities
        self._index = {lab: i for i, lab in enumerate(labels)}
        self.indices = frozenset(range(len(labels)))

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedBasis)
                and self.labels == other.labels
                and self.parities == other.parities)

    def __hash__(self):
        return hash((self.labels, self.parities))

    def __repr__(self):
        return f"GradedBasis({list(self.labels)!r})"

    def index(self, label: str) -> int:
        return self._index[label]

    def parity(self, i: int) -> int:
        return self.parities[i]

    def vector(self, key) -> "Element":
        """Basis vector by index or label."""
        i = key if isinstance(key, int) else self.index(key)
        return Element(self, {i: Q(1)})

    def zero(self) -> "Element":
        return Element(self, {})

    def vectors(self) -> list["Element"]:
        return [self.vector(i) for i in range(len(self))]


def _same_basis(a: GradedBasis, b: GradedBasis):
    if a != b:
        raise BasisMismatch(f"bases differ: {a!r} vs {b!r}")


class Tensor:
    """A sparse rank-k tensor over one graded basis, exact coefficients.

    `entries` maps keys to nonzero Fractions.  A rank-1 key is a plain basis
    index, so a `Superalgebra` row dict doubles as the coefficients of an
    element (`Element.wrap`); a key of rank k >= 2 is a tuple of k indices.
    Arithmetic returns the class of its left operand.
    """

    def __init__(self, basis: GradedBasis, entries: Mapping, rank: int):
        self.basis = basis
        self.rank = rank
        indices = basis.indices
        clean = {}
        for key, c in entries.items():
            # an index is an int proper: 1.0 and True hash like 1
            if not (type(key) is int and key in indices if rank == 1 else
                    type(key) is tuple and len(key) == rank
                    and all(type(i) is int and i in indices for i in key)):
                raise IndexError(f"key {key!r} is not a rank-{rank} key "
                                 f"over range({len(basis)})")
            if type(c) is not Fraction:
                c = as_scalar(c)
            if c:
                clean[key] = c
        self.entries = clean

    @classmethod
    def _of(cls, basis: GradedBasis, rank: int, entries: dict) -> "Tensor":
        """A tensor over `entries` itself: in-range keys, nonzero Fractions."""
        t = cls.__new__(cls)
        t.basis = basis
        t.rank = rank
        t.entries = entries
        return t

    def _with(self, entries: Mapping) -> "Tensor":
        """Same class, rank and basis over in-range Fraction entries; zero
        entries are dropped."""
        return self._of(self.basis, self.rank,
                        {k: c for k, c in entries.items() if c})

    @classmethod
    def zero(cls, basis: GradedBasis) -> "Tensor":
        """The zero tensor of a fixed-rank subclass."""
        return cls._of(basis, cls.rank, {})

    def __getitem__(self, key) -> Fraction:
        return self.entries.get(key, Q(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor)
                and self.rank == other.rank
                and self.basis == other.basis
                and self.entries == other.entries)

    def __add__(self, other: "Tensor") -> "Tensor":
        _same_basis(self.basis, other.basis)
        if self.rank != other.rank:
            raise BasisMismatch(f"cannot add tensors of rank {self.rank} "
                                f"and {other.rank}")
        out = dict(self.entries)
        for k, c in other.entries.items():
            old = out.get(k)
            out[k] = c if old is None else old + c
        return self._with(out)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + (-other)

    def __neg__(self) -> "Tensor":
        return self._with({k: -c for k, c in self.entries.items()})

    def scale(self, s) -> "Tensor":
        s = as_scalar(s)
        return self._with({k: s * c for k, c in self.entries.items()})

    __rmul__ = scale

    def legs(self, key) -> tuple:
        """The basis indices of a key, one per leg."""
        return (key,) if self.rank == 1 else key

    def parity(self) -> int | None:
        """The common parity (sum of leg parities) of all entries; None for
        0 or a mixed tensor."""
        par = self.basis.parities
        ps = {sum(par[i] for i in self.legs(k)) % 2 for k in self.entries}
        return ps.pop() if len(ps) == 1 else None

    def is_homogeneous(self) -> bool:
        return self.is_zero() or self.parity() is not None

    def __str__(self):
        lab = self.basis.labels
        return format_combination(
            [("⊗".join(atom(lab[i]) for i in self.legs(k)), c)
             for k, c in sorted(self.entries.items())])

    __repr__ = __str__


class Element(Tensor):
    """A sparse linear combination of basis vectors: a rank-1 tensor."""

    rank = 1

    def __init__(self, basis: GradedBasis, coeffs: Mapping[int, Fraction]):
        super().__init__(basis, coeffs, 1)

    @classmethod
    def wrap(cls, basis: GradedBasis, coeffs: dict[int, Fraction]) -> "Element":
        """An Element over `coeffs` itself, shared and not copied.

        The dict must already be clean: in-range indices, nonzero Fractions.
        """
        return cls._of(basis, 1, coeffs)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return self.entries


class Tensor2(Tensor):
    """A sparse rank-2 tensor; both legs lie over one basis."""

    rank = 2

    def __init__(self, left: GradedBasis, right: GradedBasis,
                 entries: Mapping[tuple[int, int], Fraction]):
        _same_basis(left, right)
        super().__init__(left, entries, 2)

    @property
    def left(self) -> GradedBasis:
        return self.basis

    right = left


# ---------------------------------------------------------------------------
# graded operations
# ---------------------------------------------------------------------------

def tensor(a: Tensor, b: Tensor) -> Tensor2:
    """Bilinear a (x) b of two elements."""
    return Tensor2(a.basis, b.basis, {(i, j): x * y
                                      for i, x in a.entries.items()
                                      for j, y in b.entries.items()})


def wedge(a: Tensor, b: Tensor) -> Tensor2:
    """a ^ b = a(x)b - (-1)^{|a||b|} b(x)a, extended bilinearly.

    Note that for equal odd vectors this doubles: e ^ e = 2 e(x)e.
    """
    _same_basis(a.basis, b.basis)
    par = a.basis.parities
    acc: dict[tuple[int, int], Fraction] = {}
    for i, x in a.entries.items():
        for j, y in b.entries.items():
            acc[(i, j)] = acc.get((i, j), 0) + x * y
            acc[(j, i)] = acc.get((j, i), 0) - koszul(par[i], par[j]) * x * y
    return Tensor2(a.basis, b.basis, acc)


def super_swap(t: Tensor) -> Tensor:
    """The permutation map of super vector spaces on a rank-2 tensor."""
    par = t.basis.parities
    return t._of(t.basis, 2, {(j, i): koszul(par[i], par[j]) * c
                              for (i, j), c in t.entries.items()})


def is_super_skew(t: Tensor) -> bool:
    """T(t) = -t for a rank-2 tensor t, compared in integer numerators."""
    par, x = t.basis.parities, _numerators(t.entries, _denominator([t.entries]))
    return all(x.get((j, i)) == (c if par[i] and par[j] else -c)
               for (i, j), c in x.items())


# ---------------------------------------------------------------------------
# exact linear algebra kernels
# ---------------------------------------------------------------------------

def _add_into(acc: dict, row: Mapping, c: Fraction) -> None:
    """acc += c * row, entry by entry.

    A coefficient of +-1 costs no multiplication, and the first term of a
    key is stored as it is rather than added to 0.
    """
    get = acc.get
    if c == 1:
        for k, x in row.items():
            old = get(k)
            acc[k] = x if old is None else old + x
    elif c == -1:
        for k, x in row.items():
            old = get(k)
            acc[k] = -x if old is None else old - x
    else:
        for k, x in row.items():
            old = get(k)
            acc[k] = c * x if old is None else old + c * x


def _denominator(rows: Iterable[Mapping]) -> int:
    """The lcm of the denominators of every coefficient in the rows."""
    return lcm(*{c.denominator for row in rows for c in row.values()})


def _numerators(row: Mapping, den: int) -> dict:
    """{key: c * den} as ints, for den a multiple of every denominator."""
    return {k: c.numerator * (den // c.denominator) for k, c in row.items()}


def _over(acc: Mapping, den: int) -> dict:
    """The nonzero entries of an integer sum over den, as Fractions."""
    return {k: Fraction(x, den) for k, x in acc.items() if x}


def _combine(rows, coeffs: Mapping) -> dict:
    """sum_k coeffs[k] rows[k], entry by entry; zero entries are dropped."""
    acc: dict = {}
    for k, c in coeffs.items():
        _add_into(acc, rows[k], c)
    return {k: x for k, x in acc.items() if x}


def _proportional(x: Mapping, sx: int, y: Mapping, sy: int) -> bool:
    """x / sx == y / sy entry for entry, for dicts of nonzero ints."""
    return x.keys() == y.keys() and all(c * sy == y[k] * sx
                                        for k, c in x.items())


def _primitive(row: dict, sign: int = 1) -> dict:
    """An integer row over the gcd of its entries, negated if sign < 0."""
    h = gcd(*row.values())  # 0 for a zero row, then unused
    return {k: x // (h if sign > 0 else -h) for k, x in row.items()}


def rref(rows: Sequence[Mapping], columns: Sequence) -> tuple[list[dict], list]:
    """Reduced row echelon form of sparse rows {column key: nonzero int or
    Fraction}; returns (reduced rows, pivot keys), pivots sought in the
    order of `columns` (other keys are carried along).  Each row is scaled
    to ints; a step is row = a*row - b*pivot_row, with a, b the pivot and
    the row's entry over their gcd, made primitive.  Each reduced row is
    the RREF row times the lcm of its denominators, so it is unique: ints
    of gcd 1, pivot positive.  Input rows are never mutated."""
    m = [_numerators(row, _denominator([row])) for row in rows]
    pivots: list = []
    for c in columns:
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if c in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow, pv = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r and c in row:
                g = gcd(pv, row[c])
                a, b = pv // g, row[c] // g
                new = {k: x for k in row.keys() | prow.keys()
                       if (x := a * row.get(k, 0) - b * prow.get(k, 0))}
                m[i] = _primitive(new)
        pivots.append(c)
    return [_primitive(row, row[p]) for row, p in zip(m, pivots)], pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref([{k: c for k, c in enumerate(row) if c} for row in rows],
                    range(len(rows[0]) if rows else 0))[1])


def factor_span(vectors: Sequence[Mapping], columns: Sequence) -> tuple | None:
    """(rows of q P^{-1} by pivot key, s times the vectors by index, q, s),
    all ints, or None for dependent vectors: P[a][p] is vector a at pivot p,
    q the lcm of the pivots, s of the vectors' denominators.  In the one
    `rref`, vector a has 1 at the tag ~a (no column is a negative int: they
    are range(n) or (r, c) pairs), so row p is its pivot times P^{-1} there."""
    red, keys = rref([{**v, ~a: 1} for a, v in enumerate(vectors)], columns)
    if len(keys) != len(vectors):
        return None
    q, s = lcm(*(row[k] for row, k in zip(red, keys))), _denominator(vectors)
    return ({k: {~t: x * (q // row[k]) for t, x in row.items()
                 if type(t) is int and t < 0} for row, k in zip(red, keys)},
            {a: _numerators(v, s) for a, v in enumerate(vectors)}, q, s)


def square_span(span: tuple) -> tuple:
    """The factorization of span (x) span from that of the span: the pivots
    are the pivot pairs, the inverse is P^{-1} (x) P^{-1} and the vectors
    are the v_a (x) v_b, keyed by (a, b)."""
    *parts, q, s = span
    return (*({(p, r): {(a, b): x * y for a, x in rows[p].items()
                        for b, y in rows[r].items()}
               for p in rows for r in rows} for rows in parts), q * q, s * s)


def _int_coordinates(span: tuple, w: Mapping) -> dict | None:
    """q times the coordinates of a sparse integer vector w (nonzero
    entries) in a factored span, sorted by key, or None when it lies
    outside: w|pivots . q P^{-1}, if their rebuild is q s w."""
    inv, vecs, q, s = span
    acc: dict = {}
    for key, c in w.items():
        if key in inv:
            _add_into(acc, inv[key], c)
    coords = {a: acc[a] for a in sorted(acc) if acc[a]}
    if _combine(vecs, coords) != {k: q * s * x for k, x in w.items()}:
        return None
    return coords


def span_coordinates(span: tuple, entries: Mapping) -> dict | None:
    """`_int_coordinates` of a sparse Fraction vector, as Fractions: those
    of d times it, d the lcm of its denominators, over q d."""
    d = _denominator([entries])
    coords = _int_coordinates(span, _numerators(entries, d))
    return None if coords is None else {a: Fraction(c, span[2] * d)
                                        for a, c in coords.items()}


def invert_matrix(rows: Sequence[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Inverse of a square matrix, sparse rows in and out; ValueError if
    singular.  Row i is {column j: value}, 0 <= j < n.  The matrix is the
    P of its own `factor_span`, so its inverse is q P^{-1} over q."""
    span = factor_span(rows, range(len(rows)))
    if span is None:
        raise ValueError("matrix is singular")
    return [_over(span[0][p], span[2]) for p in range(len(rows))]


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

class LinearMap:
    """A linear map given by the images of the source basis vectors."""

    def __init__(self, source: GradedBasis, target: GradedBasis,
                 images: Sequence[Element]):
        if len(images) != len(source):
            raise ValueError("need one image per source basis vector")
        for im in images:
            _same_basis(im.basis, target)
        self.source = source
        self.target = target
        self.images = list(images)

    @cached_property
    def int_images(self) -> tuple[int, list[dict[int, int]]]:
        """(E, [{i: c E} per image]): the images as ints over one E."""
        den = _denominator(im.entries for im in self.images)
        return den, [_numerators(im.entries, den) for im in self.images]

    def __call__(self, x: Element) -> Element:
        _same_basis(x.basis, self.source)
        return sum((self.images[i].scale(c) for i, c in x.entries.items()),
                   self.target.zero())

    def is_bijective(self) -> bool:
        n = len(self.target)
        return len(self.source) == n and len(
            rref([im.entries for im in self.images], range(n))[1]) == n

    def is_parity_preserving(self) -> bool:
        for j, im in enumerate(self.images):
            p = self.source.parity(j)
            if any(self.target.parity(i) != p for i in im.entries):
                return False
        return True


def span_equal(a: Iterable[Element], b: Iterable[Element]) -> bool:
    """Do two families of elements over one basis span the same subspace?"""
    a, b = list(a), list(b)
    both = a + b
    for e in both:
        _same_basis(e.basis, both[0].basis)
    columns = sorted({k for e in both for k in e.entries})
    return (rref([e.entries for e in a], columns)[0]
            == rref([e.entries for e in b], columns)[0])


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------

def atom(label: str) -> str:
    """Parenthesize compound labels so signed sums stay unambiguous."""
    return f"({label})" if ("+" in label or "-" in label) else label


def format_combination(terms: list[tuple[str, Fraction]]) -> str:
    """Render a signed sum like '2*a - b(x)c' in the given term order."""
    out = ""
    for name, c in terms:
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        sign = "-" if c < 0 else "+"
        out += (f" {sign} " if out else "-" * (c < 0)) + body
    return out or "0"
