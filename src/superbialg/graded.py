"""Exact sparse linear algebra over Z/2-graded bases.

Everything is built on `fractions.Fraction`, so all arithmetic is exact and
equality of any two objects is structural (absent entry == zero entry).
Values are immutable by convention: no operation mutates its inputs, and all
constructors normalize by stripping zero coefficients.

Sign conventions (used throughout the package):

* Koszul rule: transposing two homogeneous objects a, b costs (-1)^{|a||b|}.
* wedge:        a ^ b = a (x) b - (-1)^{|a||b|} b (x) a
* super swap:   T(a (x) b) = (-1)^{|a||b|} b (x) a
* signed cycle: A(a (x) b (x) c) = a(x)b(x)c + (-1)^{|a|(|b|+|c|)} b(x)c(x)a
                + (-1)^{|c|(|a|+|b|)} c(x)a(x)b
"""

from __future__ import annotations

from fractions import Fraction
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


class GradedBasis:
    """An ordered basis of a Z/2-graded vector space.

    The ordering is fixed for the life of the object; two bases are equal
    iff they carry the same labels in the same order with the same parities.
    """

    def __init__(self, labels: Sequence[str], parities: Sequence[int]):
        labels = tuple(labels)
        parities = tuple(int(p) for p in parities)
        if len(labels) == 0:
            raise ValueError("basis must contain at least one vector")
        if len(labels) != len(parities):
            raise ValueError("labels and parities must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        if any(p not in (EVEN, ODD) for p in parities):
            raise ValueError("parities must be 0 (even) or 1 (odd)")
        self.labels = labels
        self.parities = parities
        self._index = {lab: i for i, lab in enumerate(labels)}

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


class Element:
    """A sparse linear combination of basis vectors, exact coefficients."""

    def __init__(self, basis: GradedBasis, coeffs: Mapping[int, Fraction]):
        self.basis = basis
        clean = {}
        for i, c in coeffs.items():
            if not 0 <= i < len(basis):
                raise IndexError(f"index {i} out of range for basis")
            c = as_scalar(c)
            if c != 0:
                clean[i] = c
        self.coeffs = clean

    @classmethod
    def wrap(cls, basis: GradedBasis, coeffs: dict[int, Fraction]) -> "Element":
        """An Element over `coeffs` itself, shared and not copied.

        The dict must already be clean: in-range indices, nonzero Fractions.
        """
        e = cls.__new__(cls)
        e.basis = basis
        e.coeffs = coeffs
        return e

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs.get(i, Q(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element)
                and self.basis == other.basis
                and self.coeffs == other.coeffs)

    def __add__(self, other: "Element") -> "Element":
        _same_basis(self.basis, other.basis)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, Q(0)) + c
        return Element(self.basis, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.basis, {i: -c for i, c in self.coeffs.items()})

    def scale(self, s) -> "Element":
        s = as_scalar(s)
        return Element(self.basis, {i: s * c for i, c in self.coeffs.items()})

    __rmul__ = scale

    def homogeneous_parts(self) -> dict[int, "Element"]:
        """Split into even / odd parts; zero parts are omitted."""
        parts: dict[int, dict[int, Fraction]] = {}
        for i, c in self.coeffs.items():
            parts.setdefault(self.basis.parity(i), {})[i] = c
        return {p: Element(self.basis, cs) for p, cs in parts.items()}

    def is_homogeneous(self) -> bool:
        return len({self.basis.parity(i) for i in self.coeffs}) <= 1

    def parity(self) -> int | None:
        """Parity of a homogeneous element; None for 0 or mixed elements."""
        ps = {self.basis.parity(i) for i in self.coeffs}
        return ps.pop() if len(ps) == 1 else None

    def __str__(self):
        return format_combination(
            [(atom(self.basis.labels[i]), c)
             for i, c in sorted(self.coeffs.items())])

    __repr__ = __str__


class Tensor2:
    """A sparse rank-2 tensor over a pair of graded bases."""

    def __init__(self, left: GradedBasis, right: GradedBasis,
                 entries: Mapping[tuple[int, int], Fraction]):
        self.left = left
        self.right = right
        clean = {}
        for (i, j), c in entries.items():
            c = as_scalar(c)
            if c != 0:
                clean[(i, j)] = c
        self.entries = clean

    @classmethod
    def zero(cls, basis: GradedBasis) -> "Tensor2":
        return cls(basis, basis, {})

    def __getitem__(self, ij) -> Fraction:
        return self.entries.get(ij, Q(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor2)
                and self.left == other.left and self.right == other.right
                and self.entries == other.entries)

    def _check(self, other: "Tensor2"):
        _same_basis(self.left, other.left)
        _same_basis(self.right, other.right)

    def __add__(self, other: "Tensor2") -> "Tensor2":
        self._check(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            out[k] = out.get(k, Q(0)) + c
        return Tensor2(self.left, self.right, out)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + (-other)

    def __neg__(self) -> "Tensor2":
        return Tensor2(self.left, self.right,
                       {k: -c for k, c in self.entries.items()})

    def scale(self, s) -> "Tensor2":
        s = as_scalar(s)
        return Tensor2(self.left, self.right,
                       {k: s * c for k, c in self.entries.items()})

    __rmul__ = scale

    def parity(self) -> int | None:
        """Common parity |e_i|+|e_j| of all entries, if one exists."""
        ps = {(self.left.parity(i) + self.right.parity(j)) % 2
              for i, j in self.entries}
        return ps.pop() if len(ps) == 1 else None

    def __str__(self):
        terms = [(f"{atom(self.left.labels[i])}⊗{atom(self.right.labels[j])}", c)
                 for (i, j), c in sorted(self.entries.items())]
        return format_combination(terms)

    __repr__ = __str__


class Tensor3:
    """A sparse rank-3 tensor over a triple of graded bases."""

    def __init__(self, bases: tuple[GradedBasis, GradedBasis, GradedBasis],
                 entries: Mapping[tuple[int, int, int], Fraction]):
        self.bases = bases
        clean = {}
        for k, c in entries.items():
            c = as_scalar(c)
            if c != 0:
                clean[k] = c
        self.entries = clean

    @classmethod
    def zero(cls, basis: GradedBasis) -> "Tensor3":
        return cls((basis, basis, basis), {})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor3)
                and self.bases == other.bases
                and self.entries == other.entries)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if self.bases != other.bases:
            raise BasisMismatch("rank-3 tensor bases differ")
        out = dict(self.entries)
        for k, c in other.entries.items():
            out[k] = out.get(k, Q(0)) + c
        return Tensor3(self.bases, out)

    def __neg__(self) -> "Tensor3":
        return Tensor3(self.bases, {k: -c for k, c in self.entries.items()})

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return self + (-other)

    def scale(self, s) -> "Tensor3":
        s = as_scalar(s)
        return Tensor3(self.bases, {k: s * c for k, c in self.entries.items()})

    __rmul__ = scale

    def __str__(self):
        b0, b1, b2 = self.bases
        terms = [(f"{atom(b0.labels[i])}⊗{atom(b1.labels[j])}⊗{atom(b2.labels[k])}", c)
                 for (i, j, k), c in sorted(self.entries.items())]
        return format_combination(terms)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# graded operations
# ---------------------------------------------------------------------------

def tensor(a: Element, b: Element) -> Tensor2:
    """Bilinear a (x) b."""
    _same_basis(a.basis, b.basis)
    entries = {}
    for i, ca in a.coeffs.items():
        for j, cb in b.coeffs.items():
            entries[(i, j)] = ca * cb
    return Tensor2(a.basis, b.basis, entries)


def wedge(a: Element, b: Element) -> Tensor2:
    """a ^ b = a(x)b - (-1)^{|a||b|} b(x)a, extended over homogeneous parts.

    Note that for equal odd vectors this doubles: e ^ e = 2 e(x)e.
    """
    _same_basis(a.basis, b.basis)
    out = Tensor2.zero(a.basis)
    for pa, ah in a.homogeneous_parts().items():
        for pb, bh in b.homogeneous_parts().items():
            sign = -1 if (pa and pb) else 1
            out = out + tensor(ah, bh) - tensor(bh, ah).scale(sign)
    return out


def super_swap(t: Tensor2) -> Tensor2:
    """The permutation map of super vector spaces on a rank-2 tensor."""
    _same_basis(t.left, t.right)
    entries = {}
    for (i, j), c in t.entries.items():
        sign = -1 if (t.left.parity(i) and t.right.parity(j)) else 1
        entries[(j, i)] = entries.get((j, i), Q(0)) + sign * c
    return Tensor2(t.left, t.right, entries)


def alt_s(t: Tensor3) -> Tensor3:
    """Signed cyclic symmetrization of a rank-3 tensor.

    On a(x)b(x)c the three terms carry signs 1, (-1)^{|a|(|b|+|c|)} and
    (-1)^{|c|(|a|+|b|)} as the factors cycle left / right.
    """
    b0, b1, b2 = t.bases
    if not (b0 == b1 == b2):
        raise BasisMismatch("alt_s needs all three tensor legs over one basis")
    par = b0.parity
    entries: dict[tuple[int, int, int], Fraction] = {}

    def put(key, c):
        entries[key] = entries.get(key, Q(0)) + c

    for (i, j, k), c in t.entries.items():
        pi, pj, pk = par(i), par(j), par(k)
        put((i, j, k), c)
        put((j, k, i), c * ((-1) ** (pi * (pj + pk))))
        put((k, i, j), c * ((-1) ** (pk * (pi + pj))))
    return Tensor3(t.bases, entries)


# ---------------------------------------------------------------------------
# exact dense linear algebra kernel
# ---------------------------------------------------------------------------

def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns).

    Input rows are copied, never mutated.  Fully exact.
    """
    m = [list(map(as_scalar, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[1])


def solve_exact(columns: list[list[Fraction]],
                target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] == target exactly; None if unsolvable."""
    if not columns:
        return [] if all(t == 0 for t in target) else None
    n = len(target)
    aug = [[columns[j][i] for j in range(len(columns))] + [target[i]]
           for i in range(n)]
    red, pivots = rref(aug)
    ncols = len(columns)
    if ncols in pivots:
        return None  # inconsistent system
    x = [Q(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[-1]
    return x


def invert_matrix(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    n = len(m)
    aug = [list(map(as_scalar, m[i])) + [Q(1) if j == i else Q(0)
                                         for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            row.append(sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0)))
        out.append(row)
    return out


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

    def __call__(self, x: Element) -> Element:
        _same_basis(x.basis, self.source)
        out = self.target.zero()
        for i, c in x.coeffs.items():
            out = out + self.images[i].scale(c)
        return out

    def matrix(self) -> list[list[Fraction]]:
        """Dense matrix, column j = image of source vector j."""
        return [[self.images[j][i] for j in range(len(self.source))]
                for i in range(len(self.target))]

    def is_bijective(self) -> bool:
        if len(self.source) != len(self.target):
            return False
        return rank(self.matrix()) == len(self.source)

    def is_parity_preserving(self) -> bool:
        for j, im in enumerate(self.images):
            p = self.source.parity(j)
            if any(self.target.parity(i) != p for i in im.coeffs):
                return False
        return True

    def inverse(self) -> "LinearMap":
        inv = invert_matrix(self.matrix())
        images = [Element(self.source, {i: inv[i][j] for i in range(len(inv))})
                  for j in range(len(self.source))]
        return LinearMap(self.target, self.source, images)

    def apply_tensor2(self, t: Tensor2) -> Tensor2:
        """(phi (x) phi) t: both legs mapped, no sign (phi is even here)."""
        _same_basis(t.left, self.source)
        out = Tensor2.zero(self.target)
        for (i, j), c in t.entries.items():
            out = out + tensor(self.images[i], self.images[j]).scale(c)
        return out


class LinearEndomorphism(LinearMap):
    """A linear map of a graded space to itself."""

    def __init__(self, basis: GradedBasis, images: Sequence[Element]):
        super().__init__(basis, basis, images)
        self.basis = basis

    @classmethod
    def identity(cls, basis: GradedBasis) -> "LinearEndomorphism":
        return cls(basis, basis.vectors())

    @classmethod
    def zero(cls, basis: GradedBasis) -> "LinearEndomorphism":
        return cls(basis, [basis.zero()] * len(basis))

    @classmethod
    def from_matrix(cls, basis: GradedBasis,
                    m: list[list[Fraction]]) -> "LinearEndomorphism":
        images = [Element(basis, {i: m[i][j] for i in range(len(basis))})
                  for j in range(len(basis))]
        return cls(basis, images)

    def __sub__(self, other: "LinearEndomorphism") -> "LinearEndomorphism":
        _same_basis(self.basis, other.basis)
        return LinearEndomorphism(
            self.basis, [a - b for a, b in zip(self.images, other.images)])

    def __add__(self, other: "LinearEndomorphism") -> "LinearEndomorphism":
        _same_basis(self.basis, other.basis)
        return LinearEndomorphism(
            self.basis, [a + b for a, b in zip(self.images, other.images)])

    def is_even(self) -> bool:
        return self.is_parity_preserving()


def image_basis(m: LinearEndomorphism) -> list[Element]:
    """A deterministic basis of Im(m) by exact row reduction.

    When every nonzero image is homogeneous (every even map), the even and
    odd generators are reduced separately so the returned basis is itself
    homogeneous: even vectors first, then odd, each block in echelon order.
    """
    n = len(m.basis)
    nonzero = [im for im in m.images if not im.is_zero()]
    if not nonzero:
        return []

    def reduce_group(els: list[Element]) -> list[Element]:
        rows = [[e[i] for i in range(n)] for e in els]
        red, _ = rref(rows)
        return [Element(m.basis, {i: r[i] for i in range(n)}) for r in red]

    if all(e.is_homogeneous() for e in nonzero):
        evens = [e for e in nonzero if e.parity() == EVEN]
        odds = [e for e in nonzero if e.parity() == ODD]
        return reduce_group(evens) + reduce_group(odds)
    return reduce_group(nonzero)


def span_equal(a: Iterable[Element], b: Iterable[Element]) -> bool:
    """Do two families of elements span the same subspace?"""
    a, b = list(a), list(b)
    if not a and not b:
        return True
    basis = (a or b)[0].basis
    n = len(basis)
    ra = [[e[i] for i in range(n)] for e in a]
    rb = [[e[i] for i in range(n)] for e in b]
    return rref(ra)[0] == rref(rb)[0]


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------

def format_scalar(c: Fraction) -> str:
    """Render p/q, omitting the denominator when it is 1."""
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def atom(label: str) -> str:
    """Parenthesize compound labels so signed sums stay unambiguous."""
    return f"({label})" if ("+" in label or "-" in label) else label


def format_combination(terms: list[tuple[str, Fraction]]) -> str:
    """Render a signed sum like '2*a - b(x)c' in the given term order."""
    if not terms:
        return "0"
    parts = []
    for name, c in terms:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = name if mag == 1 else f"{format_scalar(mag)}*{name}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    s = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        s += f" {sign} {body}"
    return s
