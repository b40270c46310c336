"""Super cochain complexes with values in g (x) g.

An n-cochain is super alternating: swapping adjacent arguments x, y costs
-(-1)^{|x||y|}.  Values are stored only at canonical argument tuples
(indices nondecreasing, even indices strictly increasing; `canonical_tuples`
filters `itertools.combinations_with_replacement` for them); reading a value
at any other tuple applies the Koszul-signed permutation automatically.

The differential follows the two-sum formula

    df(x_1..x_{n+1}) = sum_i s1(i) x_i . f(..x_i dropped..)
                     + sum_{i<j} s2(i,j) f([x_i,x_j], ..x_i,x_j dropped..)

with

    s1(i)   = (-1)^{i+1} (-1)^{|x_i| (|f| + |x_1| + .. + |x_{i-1}|)}
    s2(i,j) = (-1)^{i+j} (-1)^{|x_i||x_j|}
              (-1)^{|x_i| (|x_1|+..+|x_{i-1}|)} (-1)^{|x_j| (|x_1|+..+|x_{j-1}|)}

(1-based i, j; the j-sum in s2 includes |x_i| since i < j).

`coboundary` adds every term into one plain dict per argument tuple, in
integers: the bracket rows of `Superalgebra.int_table` (denominator D)
times the stored values scaled to one denominator E, once per cochain
(`Cochain.int_values`), so each sum is D E times its value and "is zero"
is decided exactly.  The action on g (x) g goes through
`algebra._act_into`, the bracket-insertion terms through `_add_into`.  A
value (a rank-2 `graded.Tensor`) is built, over D E, only for a nonzero
result or to render a counterexample.

The pairwise condition (`is_cocycle_1`, `bialgebra.check_compatibility`)
is decided by one integer kernel over the nonzero constants and the
nonzero entries of f, `_pairwise_residuals`: every term of every residual
goes into one dict keyed by a packed int ((a n + b) n + k) n + v, so the
least nonzero key names the first failing pair (a, b) in product order.
Under super antisymmetry the residual at (b, a) is -(-1)^{|a||b|} times
the one at (a, b), for either parity, so the kernel sums the sorted pairs
a <= b only; on other tables it sums every pair.  Only the failing pair's
two sides are rendered.  A cochain does not change, so the first failing
pair is kept on it by (algebra, parity): `Bialgebra.verify` and
`check_compatibility` on one cobracket sum the residuals once.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement
from typing import Mapping

from .graded import (
    EVEN, ODD, GradedBasis, Tensor, Tensor2, _add_into, _combine,
    _denominator, _numerators, _over, _same_basis, koszul,
)
from .algebra import Superalgebra, _act_into
from .report import VerificationReport

REPEATED_EVEN = "value at a tuple with a repeated even argument must be 0"


def canonical_tuple(basis: GradedBasis,
                    args: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int]:
    """Sort an argument tuple into canonical order, tracking the sign.

    Returns (sorted tuple, sign); (None, 0) when the tuple has a repeated
    even index, which forces the value 0.
    """
    idx = list(args)
    sign = 1
    # insertion sort; each adjacent swap of (a, b) costs -(-1)^{|a||b|}
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            sign *= -koszul(basis.parity(idx[j - 1]), basis.parity(idx[j]))
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b and basis.parity(a) == EVEN:
            return None, 0
    return tuple(idx), sign


def canonical_tuples(basis: GradedBasis, degree: int) -> list[tuple[int, ...]]:
    """All canonical argument tuples of the given degree, in lexicographic
    order: nondecreasing, with repeated indices only for odd vectors."""
    par = basis.parities
    return [t for t in combinations_with_replacement(range(len(basis)), degree)
            if all(a != b or par[a] for a, b in zip(t, t[1:]))]


class Cochain:
    """A super-alternating n-cochain on g with values in g (x) g.

    The degree is a nonnegative int and the parity the int 0 or 1.  Each
    value, a rank-2 tensor over g's basis at any argument tuple, is stored
    at its canonical tuple, Koszul sign applied; values at one tuple add.
    """

    def __init__(self, g: Superalgebra, degree: int, parity: int,
                 values: Mapping[tuple[int, ...], Tensor] | None = None):
        if not (type(degree) is int and degree >= 0):
            raise ValueError(f"cochain degree {degree!r} is not an int >= 0")
        if not (type(parity) is int and parity in (EVEN, ODD)):
            raise ValueError(f"cochain parity {parity!r} is not 0 or 1")
        self.g = g
        self.degree = degree
        self.parity = parity
        acc: dict[tuple[int, ...], Tensor] = {}
        for args, val in (values or {}).items():
            if len(args) != degree:
                raise ValueError("argument count must equal the cochain degree")
            _same_basis(val.basis, g.basis)
            if val.rank != 2:
                raise ValueError(f"a cochain value has rank 2, not {val.rank}")
            key, sign = canonical_tuple(g.basis, args)
            if key is None:
                if not val.is_zero():
                    raise ValueError(REPEATED_EVEN)
                continue
            signed = val if sign == 1 else val.scale(sign)
            acc[key] = acc[key] + signed if key in acc else signed
        self.values = {k: v for k, v in acc.items() if not v.is_zero()}
        self._pairwise: dict = {}  # `_first_pairwise_failure` by (g, parity)

    def value(self, *args: int) -> Tensor | None:
        """Value at an arbitrary argument tuple, Koszul sign included."""
        if len(args) != self.degree:
            raise ValueError("argument count must equal the cochain degree")
        key, sign = canonical_tuple(self.g.basis, args)
        val = self.values.get(key)
        if val is None:
            return None
        return val if sign == 1 else val.scale(sign)

    @cached_property
    def int_values(self) -> tuple[int, dict[tuple[int, ...], dict]]:
        """(E, {args: {key: c E}}): every value in ints over one E."""
        den = _denominator(v.entries for v in self.values.values())
        return den, {args: _numerators(v.entries, den)
                     for args, v in self.values.items()}

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain)
                and self.g.basis == other.g.basis
                and self.degree == other.degree
                and self.parity == other.parity
                and self.values == other.values)

    def __str__(self):
        lab = self.g.basis.labels
        return "{" + ", ".join(f"{','.join(lab[i] for i in args)}: {v}"
                               for args, v in sorted(self.values.items())) + "}"

    __repr__ = __str__

    def __neg__(self) -> "Cochain":
        return Cochain(self.g, self.degree, self.parity,
                       {args: -v for args, v in self.values.items()})


def coboundary_0(g: Superalgebra, r: Tensor) -> Cochain:
    """`coboundary` of the homogeneous 0-cochain r in g (x) g.

    For even r this is the plain action a -> [a(x)1 + 1(x)a, r]; for odd r
    the general differential prepends its s1 sign, giving
    a -> (-1)^{|a|} [a(x)1 + 1(x)a, r].  (Every cobracket built from an
    r-matrix is even, so the sign never shows up in those tables; it is
    what keeps d o d = 0 on the odd part of the module.)
    """
    _same_basis(r.basis, g.basis)
    p = r.parity()
    if p is None and not r.is_zero():
        raise ValueError("0-cochain must be parity-homogeneous; "
                         "split the tensor into even and odd parts first")
    return coboundary(g, Cochain(g, 0, EVEN if p is None else p, {(): r}))


def coboundary(g: Superalgebra, f: Cochain) -> Cochain:
    """The (n+1)-cochain df, with the displayed signs s1 and s2."""
    _same_basis(f.g.basis, g.basis)
    n = f.degree
    par = g.basis.parity
    den, rows = g.int_table
    scale, ints = f.int_values
    out: dict = {}

    def stored(args):  # the integer value behind a tuple, and the sign
        key, sign = canonical_tuple(g.basis, args)
        return ints.get(key), sign
    for args in canonical_tuples(g.basis, n + 1):
        ps = [par(a) for a in args]
        before = [0] * (n + 2)  # before[i] = |x_1| + .. + |x_{i-1}|, 1-based i
        for i in range(1, n + 2):
            before[i] = before[i - 1] + ps[i - 1]
        acc: dict = {}

        # first sum: the module action terms
        for i in range(1, n + 2):
            fv, sign = stored(args[:i - 1] + args[i:])
            if fv is None:
                continue
            s1 = ((-1) ** (i + 1)) * ((-1) ** (ps[i - 1] * (f.parity + before[i - 1])))
            _act_into(acc, g, args[i - 1], fv, s1 * sign)

        # second sum: the bracket-insertion terms
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                br = rows[args[i - 1]][args[j - 1]]
                if not br:
                    continue
                rest = tuple(a for t, a in enumerate(args, start=1)
                             if t not in (i, j))
                s2 = ((-1) ** (i + j)) * koszul(ps[i - 1], ps[j - 1]) \
                    * ((-1) ** (ps[i - 1] * before[i - 1])) \
                    * ((-1) ** (ps[j - 1] * before[j - 1]))
                for k, c in br.items():
                    fv, sign = stored((k,) + rest)
                    if fv is not None:
                        _add_into(acc, fv, s2 * sign * c)

        if any(acc.values()):
            out[args] = Tensor2._of(g.basis, 2, _over(acc, scale * den))
    return Cochain(g, n + 1, f.parity, out)


def _pairwise_residuals(g: Superalgebra, delta: Cochain,
                        parity: int) -> dict[int, int]:
    """D E times the residual of the pairwise condition (`pairwise_failure`)

        R(a, b) = f([a,b]) - s a.f(b) + s' b.f(a),
        s = (-1)^{|a| p},  s' = (-1)^{|b|(p + |a|)},

    its e_k (x) e_v entry at the key ((a n + b) n + k) n + v, over the
    sorted pairs of an antisymmetric table and every pair of another.
    `left[u]` and `right[|u|][v]` list the nonzero C(z,u,k) and
    (-1)^{|z||u|} C(z,v,k), the two legs of e_z . (u (x) v); each entry of
    each f(e_y) is visited once, and e_z . f(e_y) enters R(z, y) times -s
    and R(y, z) times s'.
    """
    n = g.dim()
    nn = n * n
    par = g.basis.parities
    num = g.int_table[1]
    vals = delta.int_values[1]  # f(e_y) at (y,), E times its value
    f = [vals.get((y,), {}) for y in range(n)]
    every = g._first_antisymmetry_failure is not None
    acc: dict[int, int] = {}
    get = acc.get
    left: list[list] = [[] for _ in range(n)]
    right: list[list] = [[[] for _ in range(n)] for _ in (EVEN, ODD)]
    for z, rs in enumerate(num):
        for u, row in enumerate(rs):
            if not row:
                continue
            for k, c in row.items():
                left[u].append((z, k * n, c))
                right[EVEN][u].append((z, k, c))
                right[ODD][u].append((z, k, -c if par[z] else c))
            if every or z <= u:  # f([e_z, e_u])
                base = (z * n + u) * nn
                for m, c in row.items():
                    for (k, v), x in f[m].items():
                        key = base + k * n + v
                        acc[key] = get(key, 0) + c * x
    for y, fy in enumerate(f):
        if not fy:
            continue
        at_zy = [((z * n + y) * nn, 1 if par[z] & parity else -1)
                 for z in range(n)]
        at_yz = [((y * n + z) * nn, -1 if par[z] & (parity ^ par[y]) else 1)
                 for z in range(n)]
        if every:
            legs = at_zy, at_yz
        else:  # (z, y) for z < y, (y, z) for z > y, both at (y, y)
            legs = (at_zy[:y] + [(at_zy[y][0], at_zy[y][1] + at_yz[y][1])]
                    + at_yz[y + 1:],)
        for to in legs:
            for (u, v), x in fy.items():
                for z, kn, c in left[u]:  # [e_z,u] (x) v
                    base, s = to[z]
                    key = base + kn + v
                    acc[key] = get(key, 0) + s * x * c
                un = u * n
                for z, k, c in right[par[u]][v]:  # u (x) [e_z,v]
                    base, s = to[z]
                    key = base + un + k
                    acc[key] = get(key, 0) + s * x * c
    return acc


def _first_pairwise_failure(g: Superalgebra, delta: Cochain,
                            parity: int) -> tuple[int, int] | None:
    """The first pair (a, b) in product order at which the pairwise
    condition fails, or None: the least nonzero key of
    `_pairwise_residuals`, kept on the cochain by algebra and parity."""
    key = g, parity
    if key not in delta._pairwise:
        n = g.dim()
        least = min((k for k, x in _pairwise_residuals(g, delta, parity).items()
                     if x), default=None)
        delta._pairwise[key] = (None if least is None
                                else divmod(least // (n * n), n))
    return delta._pairwise[key]


def pairwise_failure(g: Superalgebra, delta: Cochain, parity: int,
                     sides: str) -> str | None:
    """The pairwise condition on a 1-cochain f,

        f([a,b]) = (-1)^{|a| p} a . f(b) - (-1)^{|b|(p + |a|)} b . f(a):

    None where it holds at every pair, else "pair (a, b): " at the first
    failing pair (`_first_pairwise_failure`) and the format string `sides`
    filled with both sides as values in g (x) g.  Both sides are summed in
    integers, D E times their values.
    """
    _same_basis(delta.g.basis, g.basis)
    if delta.degree != 1:
        raise ValueError("argument count must equal the cochain degree")
    pair = _first_pairwise_failure(g, delta, parity)
    if pair is None:
        return None
    a, b = pair
    par, lab = g.basis.parities, g.basis.labels
    den, rows = g.int_table
    scale, vals = delta.int_values
    f = [vals.get((y,), {}) for y in range(g.dim())]
    rhs: dict = {}
    _act_into(rhs, g, a, f[b], koszul(par[a], parity))
    _act_into(rhs, g, b, f[a], -koszul(par[b], (parity + par[a]) % 2))
    return f"pair ({lab[a]}, {lab[b]}): " + sides.format(*(
        Tensor2._of(g.basis, 2, _over(side, den * scale))
        for side in (_combine(f, rows[a][b]), rhs)))


def is_cocycle_1(g: Superalgebra, delta: Cochain) -> VerificationReport:
    """Check a 1-cochain f against the super cocycle condition: the
    pairwise condition at p = |f| (`pairwise_failure`).  On a canonical
    pair, d(f)(a, b) is minus its residual term for term, so the pairs
    decide d(f) = 0 without building the degree-2 coboundary.
    """
    _same_basis(delta.g.basis, g.basis)
    rep = VerificationReport("1-cocycle")
    if delta.degree != 1:
        rep.add("degree is 1", False, f"degree = {delta.degree}")
        return rep
    failure = pairwise_failure(g, delta, delta.parity,
                               "f([a,b]) = {} but action side = {}")
    rep.add("pairwise super cocycle condition", failure is None, failure)
    return rep
