"""The Drinfeld double of a finite-dimensional Lie superbialgebra.

With C the bracket constants of a bialgebra and D its cobracket entries,
the dual bialgebra has C* = exchange(D) and D* = exchange(C) (the one sign
map of `bialgebra.exchange`).  The double lives on basis
(e_1..e_n, e_1*..e_n*) with

    [e_i , e_j ]  = primal bracket (C)
    [e_i*, e_j*]  = dual bracket (C*, no argument twist)
    [e_i*, e_j ]  = sum_k C*(k,i -> j) e_k  +  sum_k C(j,k -> i) e_k*

where the mixed bracket is the unique one making the pairing
<e_i*, e_j> = delta_ij, <e_i, e_j*> = (-1)^{|e_i|} delta_ij invariant; it
and its super-antisymmetric mirror are read off the nonzero C and C*
entries.  The cobracket is delta on the primal block and minus the dual
cobracket, -D*, on the dual block; the canonical r-matrix is
sum_i e_i (x) e_i*.  A `DoubleAlgebra` holds only its bracket and
cobracket: the pairing, r and n are fixed by the basis and derived from it.

Verification happens once, on g.  By Drinfeld's Manin-triple theorem
(Andruskiewitsch for the super case), g (+) g* with this bracket is a Lie
superalgebra iff g and g* are and delta is a 1-cocycle; the pairing is then
invariant and d(r) = delta by construction.  Jacobi on (g*, g*, g*) is
coJacobi of delta, on the mixed triples the cocycle condition, and the
grading and antisymmetry of C* are those of delta.  So `build_double` runs
`Bialgebra.verify` and checks nothing on the 2n-dim double; its
`validate`, `check_invariance` and `check_canonical_r` stay as oracles, the
last reading d(r) and the vectors that move r + T(r) off `coboundary_0`.

`identify` composes the existing checks: bijectivity, then
`check_bialgebra_homomorphism` against the target, then the form pullback
<phi e_i, phi e_j>, summed in ints over `LinearMap.int_images` (E) and the
target form's `int_gram` (T), E^2 T times its value, and compared with the
double's pairing cross-multiplied.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm

from .graded import (
    EVEN, Q, GradedBasis, LinearMap, Tensor2, _same_basis, koszul, super_swap,
)
from .algebra import BilinearForm, Superalgebra
from .bialgebra import (
    Bialgebra, InvalidBialgebra, check_bialgebra_homomorphism,
    delta_constants, dual_basis, exchange,
)
from .cohomology import Cochain, coboundary_0
from .report import VerificationReport


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    """The dual bialgebra: bracket from delta, cobracket from the bracket.

    The bracket is C* = exchange(D), as in `dual_bracket`, and the
    cobracket is D* = exchange(C).  `Bialgebra.verify` checks both once, g*
    first, so a sign error in the exchange would surface here.
    """
    g_dual = Superalgebra(dual_basis(b.basis),
                          exchange(b.basis, delta_constants(b)))
    values: dict[tuple[int], dict[tuple[int, int], Fraction]] = {}
    for (i, j, k), c in exchange(b.basis, b.algebra.constants).items():
        values.setdefault((k,), {})[(i, j)] = c
    return Bialgebra(g_dual, Cochain(g_dual, 1, EVEN, {
        args: Tensor2(g_dual.basis, g_dual.basis, ent)
        for args, ent in values.items()}))


class DoubleAlgebra:
    """The double: its algebra and cobracket over (e_1..e_n, e_1*..e_n*).

    The pairing, the canonical r-matrix and n are fixed by that basis and
    derived on first use; a test may assign a wrong `form` or `canonical_r`
    to an instance.  `axioms` is the `Bialgebra.verify` report of the
    bialgebra `build_double` doubled, or None for a double that was not
    built here (e.g. one read from JSON).
    """

    def __init__(self, underlying: Superalgebra, delta: Cochain,
                 axioms: VerificationReport | None = None):
        self.underlying = underlying
        self.delta = delta
        self.axioms = axioms

    @property
    def primal_dim(self) -> int:
        return self.underlying.dim() // 2

    @cached_property
    def form(self) -> BilinearForm:
        """<e_i*, e_j> = delta_ij, <e_i, e_j*> = (-1)^{|e_i|} delta_ij."""
        basis, n = self.underlying.basis, self.primal_dim
        gram = [[Q(0)] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            gram[i][n + i] = Q(koszul(basis.parity(i), basis.parity(i)))
            gram[n + i][i] = Q(1)
        return BilinearForm(basis, gram)

    @cached_property
    def canonical_r(self) -> Tensor2:
        """sum_i e_i (x) e_i*."""
        basis, n = self.underlying.basis, self.primal_dim
        return Tensor2(basis, basis, {(i, n + i): Q(1) for i in range(n)})

    def as_bialgebra(self) -> Bialgebra:
        """The double as an unchecked bialgebra (see `build_double`)."""
        return Bialgebra(self.underlying, self.delta, check=False)


def build_double(b: Bialgebra) -> DoubleAlgebra:
    """Construct the double of a bialgebra from its constants alone.

    The bialgebra is verified first, once (`Bialgebra.verify`): by the
    Manin-triple theorem that report decides every axiom of the double (see
    the module docstring), so nothing is checked on the 2n-dim double.  A
    failure raises InvalidBialgebra with the text `Bialgebra(check=True)`
    gives; the passing report is kept as `axioms`.
    """
    axioms = b.verify()
    if not axioms.passed:
        raise InvalidBialgebra(str(axioms.first_failure()))
    basis = b.basis
    n = len(basis)
    par = basis.parity
    labels = list(basis.labels) + [lab + "*" for lab in basis.labels]
    dbasis = GradedBasis(labels, list(basis.parities) * 2)

    # the double's table in ints over lcm(D, E): C over D from g's table,
    # the dual bracket C* = exchange(D) over E from delta's values
    den, num = b.algebra.int_table
    e, values = b.delta.int_values()
    C = {(i, j, k): x for i, rs in enumerate(num) for j, row in enumerate(rs)
         for k, x in row.items()}
    Cd = exchange(basis, {(i, j, k): x for (k,), ent in values.items()
                          for (i, j), x in ent.items()})
    common = lcm(den, e)
    table = [[{} for _ in range(2 * n)] for _ in range(2 * n)]

    # mixed block: [e_i*, e_j] has c e_k where [e_k*, e_i*] has c e_j*, and
    # c e_k* where [e_j, e_k] has c e_i; then its super-antisymmetric mirror.
    # Each C or C* entry gives one key, and no key of the four blocks repeats.
    mixed: dict[tuple[int, int, int], int] = {}
    for (i, j, k), x in C.items():
        table[i][j][k] = mixed[(k, i, n + j)] = x * (common // den)
    for (k, i, j), x in Cd.items():
        table[n + k][n + i][n + j] = mixed[(i, j, k)] = x * (common // e)
    for (i, j, k), c in mixed.items():
        table[n + i][j][k] = c
        table[j][n + i][k] = -koszul(par(i), par(j)) * c
    underlying = Superalgebra._of(dbasis, common, table)

    # cobracket: delta on the primal block, minus the dual cobracket
    # D* = exchange(C) on the dual block (the dual half sits inside the
    # double co-oppositely)
    delta = Cochain(underlying, 1, EVEN)
    for args, t in sorted(b.delta.values.items()):
        delta.set_value(args, Tensor2(dbasis, dbasis, dict(t.entries)))
    dual_delta: dict[int, dict[tuple[int, int], Fraction]] = {}
    for (i, j, k), x in exchange(basis, C).items():
        dual_delta.setdefault(n + k, {})[(n + i, n + j)] = Fraction(-x, den)
    for k, ent in sorted(dual_delta.items()):
        delta.set_value((k,), Tensor2(dbasis, dbasis, ent))

    return DoubleAlgebra(underlying, delta, axioms=axioms)


def check_canonical_r(d: DoubleAlgebra) -> VerificationReport:
    """The canonical r must reproduce the double's cobracket, and its
    symmetric part must be invariant under the adjoint action."""
    rep = VerificationReport("canonical r-matrix")
    g = d.underlying
    dr = coboundary_0(g, d.canonical_r)
    same = dr == d.delta
    detail = None
    if not same:
        differ = sum(dr.values.get(a) != d.delta.values.get(a)
                     for a in dr.values.keys() | d.delta.values.keys())
        detail = f"d(r) - delta has {differ} nonzero values"
    rep.add("d(canonical r) = delta", same, detail)

    moved = coboundary_0(g, d.canonical_r + super_swap(d.canonical_r)).values
    rep.scan("r + T(r) is adjoint-invariant", product(range(g.dim())),
             lambda a: f"a = {g.basis.labels[a]} moves r + T(r)"
             if (a,) in moved else None)
    return rep


def identify(d: DoubleAlgebra, target: Bialgebra, phi: LinearMap,
             target_form: BilinearForm) -> VerificationReport:
    """Verify that phi identifies the double with the target bialgebra.

    Checks bijectivity, that phi is a bialgebra homomorphism (parity,
    brackets, and (phi (x) phi) o delta_d = delta_target o phi, through
    `check_bialgebra_homomorphism`), and that the double's pairing pulls
    back to the target form entry for entry.
    """
    rep = VerificationReport("double identification")
    g = d.underlying
    if phi.source != g.basis or phi.target != target.basis:
        rep.add("map connects double to target", False,
                "source/target basis mismatch")
        return rep
    rep.add("map connects double to target", True)
    rep.add("bijective", phi.is_bijective())
    rep.merge(check_bialgebra_homomorphism(phi, d.as_bialgebra(), target))

    _same_basis(phi.target, target_form.basis)
    lab = g.basis.labels
    e, ims = phi.int_images
    w, want = d.form.int_gram
    t = e * e * target_form.int_gram[0]

    def breaks(i, j):
        got = target_form._int_pair(ims[i], ims[j])  # t times the value
        return (None if got * w == want[i].get(j, 0) * t else
                f"form pullback breaks at ({lab[i]}, {lab[j]}): "
                f"{Fraction(got, t)} != {d.form.gram[i][j]}")
    rep.scan("form pulls back to the target form",
             product(range(g.dim()), repeat=2), breaks)
    return rep
