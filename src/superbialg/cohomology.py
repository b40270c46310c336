"""Super cochain complexes with values in g (x) g.

An n-cochain is super alternating: swapping adjacent arguments x, y costs
-(-1)^{|x||y|}.  Values are stored only at canonical argument tuples
(indices nondecreasing, even indices strictly increasing); reading a value
at any other tuple applies the Koszul-signed permutation automatically.

The differential follows the two-sum formula

    df(x_1..x_{n+1}) = sum_i s1(i) x_i . f(..x_i dropped..)
                     + sum_{i<j} s2(i,j) f([x_i,x_j], ..x_i,x_j dropped..)

with

    s1(i)   = (-1)^{i+1} (-1)^{|x_i| (|f| + |x_1| + .. + |x_{i-1}|)}
    s2(i,j) = (-1)^{i+j} (-1)^{|x_i||x_j|}
              (-1)^{|x_i| (|x_1|+..+|x_{i-1}|)} (-1)^{|x_j| (|x_1|+..+|x_{j-1}|)}

(1-based i, j; the j-sum in s2 includes |x_i| since i < j).

`coboundary` and the pairwise kernel `pairwise_failure` add every term
into one plain dict per argument tuple, in integers: the bracket rows of
`Superalgebra.int_table` (denominator D) times the stored values scaled
once per call to one denominator E (`Cochain.int_values`), so each sum is
D E times its value and "is zero" is decided exactly.  The action on
g (x) g goes through `algebra._act_into`, the bracket-insertion terms
through `_add_into`.  A value (a rank-2 `graded.Tensor`) is built, over
D E, only for a nonzero result or to render a counterexample.

The pairwise condition (`is_cocycle_1`, `bialgebra.check_compatibility`)
is scanned over `g.pairs_to_scan()`: under super antisymmetry its residual
at (b, a) is -(-1)^{|a||b|} times the one at (a, b), for either parity, so
the sorted pairs a <= b decide it and name the first failing pair in
product order.  Other tables are scanned over every pair in product order.
"""

from __future__ import annotations

from typing import Mapping

from .graded import (
    EVEN, ODD, GradedBasis, Tensor, Tensor2, _add_into, _denominator,
    _numerators, _over, _same_basis, koszul,
)
from .algebra import Superalgebra, _act_into
from .report import VerificationReport


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
    """All canonical argument tuples of the given degree."""
    n = len(basis)
    out: list[tuple[int, ...]] = []

    def grow(head: tuple[int, ...], start: int):
        if len(head) == degree:
            out.append(head)
            return
        for i in range(start, n):
            # repeated indices only for odd vectors
            if head and head[-1] == i and basis.parity(i) == EVEN:
                continue
            grow(head + (i,), i)
    grow((), 0)
    return out


class Cochain:
    """A super-alternating n-cochain on g with values in g (x) g.

    The degree is a nonnegative int and the parity the int 0 or 1.
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
        self.values: dict[tuple[int, ...], Tensor] = {}
        if values:
            for args, val in values.items():
                self.set_value(tuple(args), val)

    def set_value(self, args: tuple[int, ...], val: Tensor):
        """Store a value given at an arbitrary tuple (sign applied).

        The value must be a rank-2 tensor over the algebra's basis.
        """
        if len(args) != self.degree:
            raise ValueError("argument count must equal the cochain degree")
        _same_basis(val.basis, self.g.basis)
        if val.rank != 2:
            raise ValueError(f"a cochain value has rank 2, not {val.rank}")
        key, sign = canonical_tuple(self.g.basis, args)
        if key is None:
            if not val.is_zero():
                raise ValueError(
                    "value at a tuple with a repeated even argument must be 0")
            return
        signed = val if sign == 1 else val.scale(sign)
        if key in self.values:
            signed = self.values[key] + signed
        if signed.is_zero():
            self.values.pop(key, None)
        else:
            self.values[key] = signed

    def value(self, *args: int) -> Tensor | None:
        """Value at an arbitrary argument tuple, Koszul sign included."""
        if len(args) != self.degree:
            raise ValueError("argument count must equal the cochain degree")
        key, sign = canonical_tuple(self.g.basis, args)
        val = self.values.get(key)
        if val is None:
            return None
        return val if sign == 1 else val.scale(sign)

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

    def __neg__(self) -> "Cochain":
        out = Cochain(self.g, self.degree, self.parity)
        out.values = {args: -v for args, v in self.values.items()}
        return out


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
    scale, ints = f.int_values()
    out = Cochain(g, n + 1, f.parity)

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
            out.set_value(args, Tensor2._of(g.basis, 2,
                                            _over(acc, scale * den)))
    return out


def pairwise_failure(g: Superalgebra, delta: Cochain, parity: int,
                     sides: str):
    """The scan function of the pairwise condition on a 1-cochain f,

        f([a,b]) = (-1)^{|a| p} a . f(b) - (-1)^{|b|(p + |a|)} b . f(a):

    None where it holds at (a, b), else "pair (a, b): " and the format
    string `sides` filled with both sides as values in g (x) g.  Both
    sides are summed in integers, D E times their values.
    """
    _same_basis(delta.g.basis, g.basis)
    if delta.degree != 1:
        raise ValueError("argument count must equal the cochain degree")
    lab = g.basis.labels
    par = g.basis.parities
    den, rows = g.int_table
    scale, vals = delta.int_values()  # f(e_k) at (k,), sign 1

    def sides_into(lhs: dict, rhs: dict, a: int, b: int, s: int) -> None:
        """lhs += f([a,b]); rhs += s * (the action side)."""
        for k, c in rows[a][b].items():
            v = vals.get((k,))
            if v is not None:
                _add_into(lhs, v, c)
        fb = vals.get((b,))
        if fb is not None:
            _act_into(rhs, g, a, fb, s * koszul(par[a], parity))
        fa = vals.get((a,))
        if fa is not None:
            _act_into(rhs, g, b, fa,
                      -s * koszul(par[b], (parity + par[a]) % 2))

    def breaks(a, b):
        diff: dict = {}
        sides_into(diff, diff, a, b, -1)
        if not any(diff.values()):
            return None
        lhs: dict = {}
        rhs: dict = {}
        sides_into(lhs, rhs, a, b, 1)
        return (f"pair ({lab[a]}, {lab[b]}): " + sides.format(
            Tensor2._of(g.basis, 2, _over(lhs, den * scale)),
            Tensor2._of(g.basis, 2, _over(rhs, den * scale))))
    return breaks


def is_cocycle_1(g: Superalgebra, delta: Cochain) -> VerificationReport:
    """Check a 1-cochain f against the super cocycle condition: the
    pairwise condition at p = |f| over `g.pairs_to_scan()`.  On a canonical
    pair, d(f)(a, b) is minus its residual term for term, so the pairs
    decide d(f) = 0 without building the degree-2 coboundary.
    """
    _same_basis(delta.g.basis, g.basis)
    rep = VerificationReport("1-cocycle")
    if delta.degree != 1:
        rep.add("degree is 1", False, f"degree = {delta.degree}")
        return rep
    rep.scan("pairwise super cocycle condition", g.pairs_to_scan(),
             pairwise_failure(g, delta, delta.parity,
                              "f([a,b]) = {} but action side = {}"))
    return rep
