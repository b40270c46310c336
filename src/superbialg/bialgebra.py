"""Cobrackets, r-matrices, the dual bracket and Manin triples.

The graded pairing used to dualize a cobracket is

    <a* (x) b*, u (x) v> = (-1)^{|b*||u|} a*(u) b*(v).

Write C(i,j,k) for the e_k coefficient of [e_i, e_j] and D(i,j,k) for the
e_i (x) e_j entry of delta(e_k), read straight off the stored delta
(`delta_constants`).  Unwound over a basis, the pairing gives the dual
bialgebra on g* the constants

    C*(i,j,k) = (-1)^{|e_i||e_j|} D(i,j,k),
    D*(i,j,k) = (-1)^{|e_i||e_j|} C(i,j,k),

so one sign map, `exchange`, serves both directions and is its own
inverse.  `dual_bracket` is the algebra on g* with C* = exchange(D),
validated: a delta that is not super-skew gives a table that is not super
antisymmetric and is rejected there.  The tests derive the dual bracket
through the wedge basis and the pairing as the independent oracle for the
exchange.

The cobracket axioms work on plain dicts.  `check_compatibility` is the
pairwise cocycle kernel of `cohomology` at parity 0: one integer sum over
the sorted pairs a <= b once the bracket is super antisymmetric, over
every pair otherwise, and only the first failing pair rendered.  `check_cojacobi` adds the three cyclic terms of
(delta (x) Id) delta(x) straight into one dict per basis vector x, as
ints: E^2 times the sum, with E the one denominator of delta's values.
The f-equation, `check_bialgebra_homomorphism` and `check_manin_triple`
add ints too, over `LinearMap.int_images` and `BilinearForm.int_gram`.

`Bialgebra.verify` is the one complete check, run where input enters: the
default `Bialgebra(...)`, `serialize.bialgebra_from_json` and
`double.build_double`.  `restrict` and `opposite` do not verify again what
their verified input decides, and `cocommutator` checks nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from .graded import (
    EVEN, BasisMismatch, Element, GradedBasis, LinearMap, Tensor, Tensor2,
    _add_into, _combine, _denominator, _numerators, _over, _proportional,
    _same_basis, invert_matrix, is_super_skew, rref, span_coordinates,
    square_span, super_swap, tensor,
)
from .algebra import (
    BilinearForm, DependentVectors, MatrixRealization, Superalgebra,
    _leaves_span, _span_brackets, check_homomorphism, check_invariance,
    gram_matrix,
)
from .cohomology import (
    Cochain, coboundary_0, is_cocycle_1, pairwise_failure,
)
from .report import VerificationReport


class DegenerateForm(ValueError):
    """The bilinear form needed here is degenerate."""


class NotClosedUnderCobracket(ValueError):
    """delta does not restrict to the requested subspace."""


class InvalidBialgebra(ValueError):
    """The (algebra, delta) pair fails a bialgebra axiom."""


class InhomogeneousInput(ValueError):
    """A homogeneous basis vector was required."""


class Bialgebra:
    """A Lie superalgebra with a compatible cobracket.

    `check=True` runs `verify` on construction and raises InvalidBialgebra
    naming its first failure; pass False when the caller verifies later
    (`double.build_double` does) or a verified input decides the axioms
    (`restrict` and `opposite`).
    """

    def __init__(self, algebra: Superalgebra, delta: Cochain, check: bool = True):
        if delta.g.basis != algebra.basis or delta.degree != 1:
            raise BasisMismatch("delta must be a 1-cochain on the algebra")
        self.algebra = algebra
        self.delta = delta
        if check:
            rep = self.verify()
            if not rep.passed:
                raise InvalidBialgebra(str(rep.first_failure()))

    @property
    def basis(self) -> GradedBasis:
        return self.algebra.basis

    def delta_of(self, x: Element) -> Tensor2:
        """delta(x) = sum_i c_i delta(e_i) for x = sum_i c_i e_i."""
        acc: dict[tuple[int, int], Fraction] = {}
        for i, c in x.entries.items():
            v = self.delta.value(i)
            if v is not None:
                _add_into(acc, v.entries, c)
        return Tensor2(self.basis, self.basis, acc)

    def verify(self) -> VerificationReport:
        """The one complete check: g passes `validate`; delta is even entry
        by entry (|e_i| + |e_j| = |e_k| for each e_i (x) e_j in delta(e_k)),
        super-skew, a 1-cocycle and coJacobi.  By the Manin-triple theorem
        this decides the Drinfeld double as well (see `double`).
        """
        rep = VerificationReport("bialgebra axioms")
        rep.merge(self.algebra.validate())
        par, lab = self.basis.parities, self.basis.labels

        def misgraded(key, c):
            i, j, k = key
            return (None if (par[i] + par[j]) % 2 == par[k] else
                    f"D({lab[i]},{lab[j]} -> {lab[k]}) = {c} breaks the "
                    f"grading")
        if self.delta.parity == EVEN:
            rep.scan("delta is even", sorted(delta_constants(self).items()),
                     misgraded)
        else:  # a declared odd cochain is no cobracket
            rep.add("delta is even", False)
        rep.add("delta values are super-skew",
                all(map(is_super_skew, self.delta.values.values())))
        rep.merge(is_cocycle_1(self.algebra, self.delta))
        rep.merge(check_cojacobi(self.algebra, self.delta))
        return rep


# ---------------------------------------------------------------------------
# invariant tensors and r-matrices
# ---------------------------------------------------------------------------

def casimir(real: MatrixRealization, g: Superalgebra) -> Tensor2:
    """The invariant tensor dual to the supertrace form of `real`.

    With G the Gram matrix of the form, the result is
    sum_{ij} (G^{-1})_{ij} e_i (x) e_j; invariance under the adjoint action
    of g, the algebra `real` realizes, is verified before returning.
    """
    try:
        inv = invert_matrix([{j: x for j, x in enumerate(row) if x}
                             for row in gram_matrix(real).gram])
    except ValueError:
        raise DegenerateForm("supertrace form is degenerate") from None
    omega = Tensor2._of(real.basis, 2, {(i, j): x for i, row in enumerate(inv)
                                        for j, x in row.items()})
    if not coboundary_0(g, omega).is_zero():  # d(omega)(a) = a . omega
        raise ValueError("constructed tensor is not adjoint-invariant")
    return omega


def r_of_f(f: LinearMap, omega: Tensor2) -> Tensor2:
    """(f (x) 1) omega: apply f, a map from g to g, to the left tensor leg."""
    _same_basis(f.source, omega.basis)
    _same_basis(f.target, omega.basis)
    return sum((tensor(f.images[i], omega.basis.vector(j)).scale(c)
                for (i, j), c in omega.entries.items()),
               Tensor2.zero(omega.basis))


def solve_f_from_r(r: Tensor2, omega: Tensor2) -> LinearMap:
    """The unique f with (f (x) 1) omega = r, for invertible omega:
    f(e_i) = sum_j (omega^{-1})_{ji} r_j, r_j the left legs of r at e_j."""
    basis = omega.basis
    _same_basis(r.basis, basis)
    omega_t, legs = [{} for _ in basis.labels], [{} for _ in basis.labels]
    for (i, j), c in omega.entries.items():
        omega_t[j][i] = c
    for (k, j), c in r.entries.items():
        legs[j][k] = c
    return LinearMap(basis, basis, [Element.wrap(basis, _combine(legs, row))
                                    for row in invert_matrix(omega_t)])


def check_f_equation(g: Superalgebra, f: LinearMap) -> VerificationReport:
    """Check (f-1)[f(x), f(y)] = f([(f-1)(x), (f-1)(y)]) over all pairs;
    both sides add ints over `g.int_table` (D) and `f.int_images` (E), E^3 D
    times their values."""
    _same_basis(f.source, g.basis)
    _same_basis(f.target, g.basis)
    rep = VerificationReport("f-equation")
    e, fi = f.int_images
    fm1 = [{k: x for k, x in {**im, i: im.get(i, 0) - e}.items() if x}
           for i, im in enumerate(fi)]
    scale = e ** 3 * g.int_table[0]
    lab = g.basis.labels

    def breaks(i, j):
        lhs = _combine(fm1, g._int_bracket(fi[i], fi[j]))
        rhs = _combine(fi, g._int_bracket(fm1[i], fm1[j]))
        return (None if lhs == rhs else
                f"pair ({lab[i]}, {lab[j]}): "
                f"{Element.wrap(g.basis, _over(lhs, scale))} != "
                f"{Element.wrap(g.basis, _over(rhs, scale))}")
    rep.scan("(f-1)[fx,fy] = f([(f-1)x,(f-1)y])",
             product(range(g.dim()), repeat=2), breaks)
    return rep


def check_unitarity(r: Tensor2, omega: Tensor2) -> VerificationReport:
    """Check r + T(r) = omega entrywise."""
    rep = VerificationReport("unitarity")
    diff = r + super_swap(r) - omega
    rep.add("r + T(r) = omega", diff.is_zero(),
            None if diff.is_zero() else f"r + T(r) - omega = {diff}")
    return rep


def cocommutator(g: Superalgebra, r: Tensor2) -> Cochain:
    """The cobracket d(r): a -> [a (x) 1 + 1 (x) a, r], the paper's name for
    `coboundary_0`; `Bialgebra.verify` decides whether it is a cobracket."""
    return coboundary_0(g, r)


# ---------------------------------------------------------------------------
# cobracket axioms
# ---------------------------------------------------------------------------

def check_cojacobi(g: Superalgebra, delta: Cochain) -> VerificationReport:
    """Check the coJacobi identity: the signed cyclic sum of
    (delta (x) Id) . delta(x) vanishes for every basis vector x.

    delta is even, so (delta (x) Id)(u (x) v) = delta(u) (x) v with no
    extra sign.  Each term i (x) j (x) v of it is added straight into one
    dict at its three cyclic positions, (i,j,v), (j,v,i) with sign
    (-1)^{|i|(|j|+|v|)} and (v,i,j) with sign (-1)^{|v|(|i|+|j|)}; a
    rank-3 Tensor is built only to render a failure.
    """
    _same_basis(delta.g.basis, g.basis)
    if delta.degree != 1:
        raise ValueError("argument count must equal the cochain degree")
    rep = VerificationReport("coJacobi")
    lab = g.basis.labels
    par = g.basis.parities
    den, vals = delta.int_values()  # delta(e_k) at (k,), sign 1

    def breaks(a):
        da = vals.get((a,))
        if da is None:
            return None
        acc: dict[tuple[int, int, int], int] = {}
        get = acc.get
        for (u, v), c in da.items():
            du = vals.get((u,))
            if du is None:
                continue
            pv = par[v]
            for (i, j), d in du.items():
                x = c * d
                pi, pj = par[i], par[j]
                for key, flip in (((i, j, v), False),
                                  ((j, v, i), pi and (pj + pv) % 2),
                                  ((v, i, j), pv and (pi + pj) % 2)):
                    acc[key] = get(key, 0) + (-x if flip else x)
        return (f"at {lab[a]}: cyclic sum = "
                f"{Tensor._of(g.basis, 3, _over(acc, den * den))}"
                if any(acc.values()) else None)
    rep.scan("Alt(delta (x) Id) delta = 0", product(range(g.dim())), breaks)
    return rep


def check_compatibility(g: Superalgebra, delta: Cochain) -> VerificationReport:
    """Check delta([a,b]) = [delta(a), b(x)1 + 1(x)b] + [a(x)1 + 1(x)a, delta(b)].

    The right bracket of a homogeneous tensor t with b(x)1 + 1(x)b is
    -(-1)^{|b||t|} times the left action of b on t, so this is the pairwise
    condition of `cohomology.pairwise_failure` at parity 0.
    """
    rep = VerificationReport("cocycle compatibility")
    failure = pairwise_failure(g, delta, EVEN, "{} != {}")
    rep.add("delta([a,b]) matches the Leibniz expansion", failure is None,
            failure)
    return rep


# ---------------------------------------------------------------------------
# duals, restriction, opposites
# ---------------------------------------------------------------------------

def dual_basis(basis: GradedBasis) -> GradedBasis:
    return GradedBasis([lab + "*" for lab in basis.labels], basis.parities)


def exchange(basis: GradedBasis, table: dict[tuple[int, int, int], Fraction]
             ) -> dict[tuple[int, int, int], Fraction]:
    """table(i,j,k) -> (-1)^{|e_i||e_j|} table(i,j,k): the constant exchange.

    It sends the bracket constants C of g to the cobracket entries D* of
    g* and the entries D of delta to the bracket constants C* of g*; it is
    its own inverse.
    """
    par = basis.parities
    return {(i, j, k): -c if par[i] and par[j] else c
            for (i, j, k), c in table.items()}


def delta_constants(b: Bialgebra) -> dict[tuple[int, int, int], Fraction]:
    """D(i,j,k), the e_i (x) e_j entry of delta(e_k), off the stored delta."""
    return {(i, j, k): c for (k,), t in b.delta.values.items()
            for (i, j), c in t.entries.items()}


def dual_bracket(b: Bialgebra) -> Superalgebra:
    """The Lie superalgebra on g*, C* = exchange(D), validated."""
    out = Superalgebra(dual_basis(b.basis),
                       exchange(b.basis, delta_constants(b)))
    rep = out.validate()
    if not rep.passed:
        raise InvalidBialgebra(f"dual bracket is not a Lie superalgebra: "
                               f"{rep.first_failure()}")
    return out


def restrict(b: Bialgebra, sub: Sequence[Element],
             labels: Sequence[str] | None = None) -> Bialgebra:
    """Restrict a bialgebra to a subalgebra spanned by `sub`.

    Every sub vector must be homogeneous and independent; the bracket and
    delta must both close on the span (exact membership, no projection).
    The span is factored once, by `algebra._span_brackets`, which reads
    every [v_i, v_j] off it; every delta(v) is read off its tensor square,
    which factors span (x) span.  Raises NotClosedUnderCobracket when some
    bracket leaves the span or some delta(v) leaves span (x) span.

    The result is not verified again: a subspace closed under bracket and
    cobracket inherits every axiom that b satisfies.
    """
    g = b.algebra
    for v in sub:
        if not v.is_homogeneous() or v.is_zero():
            raise InhomogeneousInput(f"sub vector {v} is not homogeneous")
    span, brackets = _span_brackets(g, sub, "restriction")
    if labels is None:
        labels = [f"v{i}" for i in range(len(sub))]
    sub_basis = GradedBasis(labels, [v.parity() for v in sub])

    num = [[{} for _ in sub] for _ in sub]  # q D s^2 times the constants
    for i, j, coords in brackets:
        if coords is None:
            raise NotClosedUnderCobracket(
                f"bracket [{sub[i]}, {sub[j]}] leaves the span")
        num[i][j] = coords
    *_, q, s = span
    sub_alg = Superalgebra._of(sub_basis, q * g.int_table[0] * s * s, num)

    pairs = square_span(span)
    delta_sub = Cochain(sub_alg, 1, b.delta.parity)
    for s_idx, v in enumerate(sub):
        entries = span_coordinates(pairs, b.delta_of(v).entries)
        if entries is None:
            raise NotClosedUnderCobracket(
                f"delta({v}) does not lie in span (x) span")
        if entries:
            delta_sub.set_value((s_idx,), Tensor2(sub_basis, sub_basis, entries))
    return Bialgebra(sub_alg, delta_sub, check=False)


def opposite(b: Bialgebra) -> Bialgebra:
    """The opposite bialgebra: bracket negated, cobracket unchanged.

    Negating the bracket is the graded-safe way to reverse it: transposing
    arguments instead would leave odd-odd brackets untouched and does not
    yield the structure dual to -delta.  It is not verified again: every
    axiom is homogeneous in the bracket, so it holds for -[,] as for b.
    """
    neg = Superalgebra(b.basis, {k: -c for k, c in b.algebra.constants.items()})
    delta = Cochain(neg, 1, b.delta.parity, b.delta.values)
    return Bialgebra(neg, delta, check=False)


def check_bialgebra_homomorphism(phi: LinearMap, source: Bialgebra,
                                 target: Bialgebra) -> VerificationReport:
    """Bracket homomorphism plus (phi (x) phi) o delta_src = delta_tgt o phi.

    The cobracket sides add ints over `phi.int_images` (E) and the deltas'
    `int_values` (E_s, E_t): E_s E^2 and E E_t times their values.
    """
    rep = check_homomorphism(phi, source.algebra, target.algebra)
    es, src = source.delta.int_values()
    et, tgt = target.delta.int_values()
    e, ims = phi.int_images
    tgt = [tgt.get((i,), {}) for i in range(len(target.basis))]
    squares = {ij: {(a, b): x * y for a, x in ims[ij[0]].items()
                    for b, y in ims[ij[1]].items()}
               for v in src.values() for ij in v}  # phi e_i (x) phi e_j
    sl, sr = es * e * e, e * et

    def breaks(k):
        lhs = _combine(squares, src.get((k,), {}))
        rhs = _combine(tgt, ims[k])
        return (None if _proportional(lhs, sl, rhs, sr) else
                f"cobracket breaks on {source.basis.labels[k]}: "
                f"{Tensor2._of(target.basis, 2, _over(lhs, sl))} != "
                f"{Tensor2._of(target.basis, 2, _over(rhs, sr))}")
    rep.scan("cobracket preserved", product(range(len(source.basis))), breaks)
    return rep


# ---------------------------------------------------------------------------
# Manin triples
# ---------------------------------------------------------------------------

class ManinTriple:
    """An ambient algebra with a form and two candidate isotropic halves."""

    def __init__(self, ambient: Superalgebra, form: BilinearForm,
                 plus: Sequence[Element], minus: Sequence[Element]):
        self.ambient = ambient
        self.form = form
        self.plus = list(plus)
        self.minus = list(minus)


def check_manin_triple(t: ManinTriple) -> VerificationReport:
    """Direct sum, subalgebra closure, isotropy, and form axioms."""
    rep = VerificationReport("Manin triple")
    g = t.ambient
    n = g.dim()

    rows = [v.entries for v in t.plus + t.minus]
    combined = len(rref(rows, range(n))[1])
    direct = len(rows) == combined == n
    rep.add("ambient = plus -o- minus (direct sum)", direct,
            None if direct else f"dim plus + dim minus = {len(rows)}, "
            f"combined rank = {combined}, dim ambient = {n}")

    for name, part in (("plus", t.plus), ("minus", t.minus)):
        try:
            bad = _leaves_span(g, part, name)
        except DependentVectors as e:
            bad = str(e)
        rep.add(f"{name} is a subalgebra", bad is None, bad)

    form = t.form
    for name, part in (("plus", t.plus), ("minus", t.minus)):
        s = _denominator(v.entries for v in part)  # <a, b> is T s^2 times
        ints = [_numerators(v.entries, s) for v in part]

        def pairs_nonzero(a, b):
            _same_basis(part[a].basis, form.basis)
            _same_basis(part[b].basis, form.basis)
            val = form._int_pair(ints[a], ints[b])
            return (None if val == 0 else f"<{part[a]}, {part[b]}> = "
                    f"{Fraction(val, form.int_gram[0] * s * s)}")
        rep.scan(f"{name} is isotropic", product(range(len(part)), repeat=2),
                 pairs_nonzero)

    rep.add("form is super-symmetric", form.is_supersymmetric())
    rep.add("form is nondegenerate", form.is_nondegenerate())
    rep.merge(check_invariance(g, form))
    return rep
