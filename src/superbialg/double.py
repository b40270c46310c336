"""The Drinfeld double of a finite-dimensional Lie superbialgebra.

Constants convention: with [e_i, e_j] = sum_k C(i,j,k) e_k and
delta(e_k) = sum_{i<j} D(k,i,j) e_i ^ e_j + sum_{i odd} D(k,i,i) e_i ^ e_i
(wedge basis, e ^ e = 2 e (x) e), the dual algebra carries

    [e_i*, e_j*] = sum_k C*(i,j,k) e_k*,   C*(i,j,k) = (-1)^{|e_i||e_j|} D(k,i,j)
                                            (i < j);  -2 D(k,i,i)  (i = j)

and the dual cobracket has D*(k,i,j) = (-1)^{|e_i||e_j|} C(k: i,j) for i < j
and D*(k,i,i) = -C(i,i -> k)/2 on odd diagonals.  The -1/2 (rather than -2)
is forced by the pairing that defines the dual cobracket and makes the two
exchange rules mutually inverse.

The double lives on basis (e_1..e_n, e_1*..e_n*) with

    [e_i , e_j ]  = primal bracket
    [e_i*, e_j*]  = dual bracket (as above, no argument twist)
    [e_i*, e_j ]  = sum_k C*(k,i -> j) e_k  +  sum_k C(j,k -> i) e_k*

where the mixed bracket is the unique one making the pairing
<e_i*, e_j> = delta_ij, <e_i, e_j*> = (-1)^{|e_i|} delta_ij invariant.
The cobracket is delta on the primal block and minus the dual cobracket on
the dual block; the canonical r-matrix is sum_i e_i (x) e_i*.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import (
    EVEN, Q, GradedBasis, LinearMap, Tensor2, super_swap,
)
from .algebra import (
    BilinearForm, Superalgebra, adjoint_on_tensor2, check_invariance, koszul,
)
from .bialgebra import (
    Bialgebra, check_cojacobi, dual_basis,
)
from .cohomology import Cochain, coboundary_0, is_cocycle_1
from .report import VerificationReport


class InconsistentConstants(ValueError):
    """A delta value could not be expanded in the ordered wedge basis."""


class DoubleConstructionError(ValueError):
    """The constructed double failed one of its defining axioms."""


class StructureConstants:
    """Bracket constants C and wedge-basis cobracket constants D."""

    def __init__(self, basis: GradedBasis,
                 C: dict[tuple[int, int, int], Fraction],
                 D: dict[tuple[int, int, int], Fraction]):
        self.basis = basis
        self.C = {k: v for k, v in C.items() if v != 0}
        self.D = {}
        for (k, i, j), v in D.items():
            if v == 0:
                continue
            if i > j:
                raise ValueError("D is stored on the ordered wedge basis (i <= j)")
            if i == j and basis.parity(i) == EVEN:
                raise ValueError("diagonal D entries need an odd index")
            self.D[(k, i, j)] = v


def extract_constants(b: Bialgebra) -> StructureConstants:
    """Read C off the algebra and solve D from the delta table."""
    basis = b.basis
    par = basis.parity
    D: dict[tuple[int, int, int], Fraction] = {}
    for k in range(len(basis)):
        t = b.delta.value(k)
        if t is None:
            continue
        # expand in the ordered wedge basis and re-check the expansion
        recon: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in t.entries.items():
            if i < j:
                D[(k, i, j)] = c
            elif i == j:
                if par(i) == EVEN:
                    raise InconsistentConstants(
                        f"delta({basis.labels[k]}) has an even diagonal entry")
                D[(k, i, i)] = c / 2
        for (k2, i, j), d in list(D.items()):
            if k2 != k:
                continue
            if i == j:
                recon[(i, i)] = recon.get((i, i), Q(0)) + 2 * d
            else:
                recon[(i, j)] = recon.get((i, j), Q(0)) + d
                recon[(j, i)] = recon.get((j, i), Q(0)) - koszul(par(i), par(j)) * d
        if Tensor2(basis, basis, recon) != t:
            raise InconsistentConstants(
                f"delta({basis.labels[k]}) is not super-skew")
    return StructureConstants(basis, dict(b.algebra.constants), D)


def dual_constants(sc: StructureConstants) -> StructureConstants:
    """Exchange C and D to produce the constants of the dual algebra.

    The dual bracket gets the (-1)^{|i||j|} / -2 factors; the dual
    cobracket gets (-1)^{|i||j|} off the diagonal and -1/2 on odd
    diagonals, making the exchange an involution.
    """
    par = sc.basis.parity
    Cd: dict[tuple[int, int, int], Fraction] = {}
    for (k, i, j), d in sc.D.items():
        if i == j:
            Cd[(i, i, k)] = Cd.get((i, i, k), Q(0)) - 2 * d
        else:
            c = koszul(par(i), par(j)) * d
            Cd[(i, j, k)] = Cd.get((i, j, k), Q(0)) + c
            # super antisymmetry fills the transposed pair
            Cd[(j, i, k)] = Cd.get((j, i, k), Q(0)) - koszul(par(i), par(j)) * c
    Dd: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), c in sc.C.items():
        if i < j:
            Dd[(k, i, j)] = Dd.get((k, i, j), Q(0)) + koszul(par(i), par(j)) * c
        elif i == j:
            Dd[(k, i, i)] = Dd.get((k, i, i), Q(0)) - c / 2
    return StructureConstants(dual_basis(sc.basis), Cd, Dd)


def dual_delta_cochain(g_dual: Superalgebra,
                       sc_dual: StructureConstants) -> Cochain:
    """Assemble the wedge-basis D table of g* into a 1-cochain on g*."""
    basis = g_dual.basis
    par = basis.parity
    delta = Cochain(g_dual, 1, EVEN)
    values: dict[int, dict[tuple[int, int], Fraction]] = {}
    for (k, i, j), d in sc_dual.D.items():
        ent = values.setdefault(k, {})
        if i == j:
            ent[(i, i)] = ent.get((i, i), Q(0)) + 2 * d
        else:
            ent[(i, j)] = ent.get((i, j), Q(0)) + d
            ent[(j, i)] = ent.get((j, i), Q(0)) - koszul(par(i), par(j)) * d
    for k, ent in values.items():
        t = Tensor2(basis, basis, ent)
        if not t.is_zero():
            delta.set_value((k,), t)
    return delta


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    """The dual bialgebra: bracket from delta, cobracket from the bracket.

    Built through the constant exchange; the axioms are re-verified on
    construction, so a sign error in either exchange direction would
    surface here.
    """
    scd = dual_constants(extract_constants(b))
    g_dual = Superalgebra(dual_basis(b.basis), scd.C)
    return Bialgebra(g_dual, dual_delta_cochain(g_dual, scd))


class DoubleAlgebra:
    """The double: algebra, cobracket, pairing and canonical r-matrix.

    `axioms` is the bracket-axiom report `build_double` verified, or None
    for a double that was not verified here (e.g. one read from JSON).
    """

    def __init__(self, underlying: Superalgebra, delta: Cochain,
                 form: BilinearForm, canonical_r: Tensor2, primal_dim: int,
                 axioms: VerificationReport | None = None):
        self.underlying = underlying
        self.delta = delta
        self.form = form
        self.canonical_r = canonical_r
        self.primal_dim = primal_dim
        self.axioms = axioms

    def as_bialgebra(self, check: bool = False) -> Bialgebra:
        return Bialgebra(self.underlying, self.delta, check=check)


def build_double(b: Bialgebra) -> DoubleAlgebra:
    """Construct the double of a bialgebra from its constants alone.

    The output is verified before returning: the bracket must satisfy the
    superalgebra axioms (a Jacobi failure signals an inconsistent input),
    the form must be invariant, and the cobracket must be a skew cocycle
    satisfying coJacobi.  The bracket-axiom report is kept as `axioms`.
    """
    sc = extract_constants(b)
    scd = dual_constants(sc)
    basis = b.basis
    n = len(basis)
    par = basis.parity
    labels = list(basis.labels) + [lab + "*" for lab in basis.labels]
    dbasis = GradedBasis(labels, list(basis.parities) * 2)

    constants: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), c in sc.C.items():
        constants[(i, j, k)] = c
    for (i, j, k), c in scd.C.items():
        constants[(n + i, n + j, n + k)] = c

    # mixed block [e_i*, e_j], then its super-antisymmetric mirror
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = scd.C.get((k, i, j), Q(0))  # coefficient of e_j* in [e_k*, e_i*]
                if c != 0:
                    constants[(n + i, j, k)] = constants.get((n + i, j, k), Q(0)) + c
                c2 = sc.C.get((j, k, i), Q(0))  # coefficient of e_i in [e_j, e_k]
                if c2 != 0:
                    constants[(n + i, j, n + k)] = (
                        constants.get((n + i, j, n + k), Q(0)) + c2)
    for i in range(n):
        for j in range(n):
            s = -koszul(par(i), par(j))
            for k in range(2 * n):
                c = constants.get((n + i, j, k), Q(0))
                if c != 0:
                    constants[(j, n + i, k)] = (
                        constants.get((j, n + i, k), Q(0)) + s * c)

    underlying = Superalgebra(dbasis, constants)
    bracket_axioms = underlying.validate()
    if not bracket_axioms.passed:
        raise DoubleConstructionError(
            f"double bracket fails the axioms: "
            f"{bracket_axioms.first_failure()}")

    # cobracket: delta on the primal block, minus the dual cobracket on the
    # dual block (the dual half sits inside the double co-oppositely)
    delta = Cochain(underlying, 1, EVEN)
    for k in range(n):
        t = b.delta.value(k)
        if t is not None:
            delta.set_value((k,), Tensor2(dbasis, dbasis, dict(t.entries)))
    g_dual = Superalgebra(dual_basis(basis), scd.C)
    ddual = dual_delta_cochain(g_dual, scd)
    for k in range(n):
        t = ddual.value(k)
        if t is not None:
            shifted = {(n + i, n + j): -c for (i, j), c in t.entries.items()}
            delta.set_value((n + k,), Tensor2(dbasis, dbasis, shifted))

    gram = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        gram[i][n + i] = Q(koszul(par(i), par(i)))  # (-1)^{|e_i|}
        gram[n + i][i] = Q(1)
    form = BilinearForm(dbasis, gram)

    canonical_r = Tensor2(dbasis, dbasis, {(i, n + i): Q(1) for i in range(n)})

    inv = check_invariance(underlying, form)
    if not inv.passed:
        raise DoubleConstructionError(f"double form not invariant: "
                                      f"{inv.first_failure()}")
    axioms = VerificationReport("double cobracket")
    axioms.add("values super-skew",
               all(super_swap(v) == v.scale(-1) for v in delta.values.values()))
    axioms.merge(is_cocycle_1(underlying, delta))
    axioms.merge(check_cojacobi(underlying, delta))
    if not axioms.passed:
        raise DoubleConstructionError(f"double cobracket fails: "
                                      f"{axioms.first_failure()}")
    return DoubleAlgebra(underlying, delta, form, canonical_r, n,
                         axioms=bracket_axioms)


def check_canonical_r(d: DoubleAlgebra) -> VerificationReport:
    """The canonical r must reproduce the double's cobracket, and its
    symmetric part must be invariant under the adjoint action."""
    rep = VerificationReport("canonical r-matrix")
    g = d.underlying
    dr = coboundary_0(g, d.canonical_r)
    same = dr == d.delta
    detail = None
    if not same:
        diff = (dr - d.delta).values
        detail = f"d(r) - delta has {len(diff)} nonzero values"
    rep.add("d(canonical r) = delta", same, detail)

    sym = d.canonical_r + super_swap(d.canonical_r)
    bad = None
    for a in range(g.dim()):
        if not adjoint_on_tensor2(g, g.basis.vector(a), sym).is_zero():
            bad = f"a = {g.basis.labels[a]} moves r + T(r)"
            break
    rep.add("r + T(r) is adjoint-invariant", bad is None, bad)
    return rep


def identify(d: DoubleAlgebra, target: Bialgebra, phi: LinearMap,
             target_form: BilinearForm | None = None) -> VerificationReport:
    """Verify that phi identifies the double with the target bialgebra.

    Checks bijectivity, the bracket homomorphism property, the cobracket
    homomorphism property (phi (x) phi) o delta_d = delta_target o phi, and
    (when a target form is supplied) that the double's pairing pulls back
    to it entry for entry.
    """
    rep = VerificationReport("double identification")
    g = d.underlying
    if phi.source != g.basis or phi.target != target.basis:
        rep.add("map connects double to target", False,
                "source/target basis mismatch")
        return rep
    rep.add("map connects double to target", True)
    rep.add("bijective", phi.is_bijective())
    rep.add("parity preserving", phi.is_parity_preserving())

    lab = g.basis.labels
    bad = None
    for i in range(g.dim()):
        for j in range(g.dim()):
            lhs = phi(g.bracket_basis(i, j))
            rhs = target.algebra.bracket(phi.images[i], phi.images[j])
            if lhs != rhs:
                bad = f"bracket breaks on ({lab[i]}, {lab[j]}): {lhs} != {rhs}"
                break
        if bad:
            break
    rep.add("bracket homomorphism", bad is None, bad)

    bad = None
    for k in range(g.dim()):
        t = d.delta.value(k)
        lhs = (phi.apply_tensor2(t) if t is not None
               else Tensor2.zero(target.basis))
        img = phi.images[k]
        rhs = Tensor2.zero(target.basis)
        for i, c in img.coeffs.items():
            tv = target.delta.value(i)
            if tv is not None:
                rhs = rhs + tv.scale(c)
        if lhs != rhs:
            bad = f"cobracket breaks on {lab[k]}: {lhs} != {rhs}"
            break
    rep.add("cobracket homomorphism", bad is None, bad)

    if target_form is not None:
        bad = None
        for i in range(g.dim()):
            for j in range(g.dim()):
                want = d.form.gram[i][j]
                got = target_form.pair(phi.images[i], phi.images[j])
                if want != got:
                    bad = (f"form pullback breaks at ({lab[i]}, {lab[j]}): "
                           f"{got} != {want}")
                    break
            if bad:
                break
        rep.add("form pulls back to the target form", bad is None, bad)
    return rep
