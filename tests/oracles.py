"""Independent reference derivations that tests compare the library against.

The library derives the dual bracket from the constant exchange
(`bialgebra.exchange`, one Koszul sign per entry of the stored delta).  The
oracle here goes through the wedge basis instead: it writes each delta(e_k)
as sum w_ab e_a ^ e_b (a < b, and a = b odd, where e_a ^ e_a is
2 e_a (x) e_a), checks that the expansion rebuilds delta(e_k), and pairs
every wedge with e_i* (x) e_j* term by term through the graded pairing

    <a* (x) b*, u (x) v> = (-1)^{|b*||u|} a*(u) b*(v),

so that <[e_i*, e_j*], e_k> = <e_i* (x) e_j*, delta(e_k)>.  It shares no
code with the exchange; a sign dropped there shows up as a mismatch.

The library verifies a double's cobracket through its canonical r alone
(`double.check_canonical_r`).  The super classical Yang-Baxter expression
[[r,r]] = [r12,r13] + [r12,r23] + [r13,r23] is the independent check on
that: for an even r = sum r_pq e_p (x) e_q (so |p| = |q| on every entry),
expanding the commutators in U(g)^(x)3 with Koszul signs gives

    [r12,r13] = sum (-1)^{|p||s|} r_pq r_st [e_p,e_s] (x) e_q (x) e_t
    [r12,r23] = sum                r_pq r_st e_p (x) [e_q,e_s] (x) e_t
    [r13,r23] = sum (-1)^{|p||s|} r_pq r_st e_p (x) e_s (x) [e_q,e_t].

When r + T(r) is ad-invariant, d(r) satisfies coJacobi iff [[r,r]] is
ad-invariant; the canonical r of a double has [[r,r]] = 0.

The library's adjoint action on g (x) g sums integer numerators
(`algebra._act_into`, behind `cohomology.coboundary_0`);
`adjoint_on_tensor2` here is the Leibniz rule on the Fraction rows that
`fraction_rows` builds from `Superalgebra.constants`, as
`adjoint_on_tensor3` is on g (x) g (x) g.

`alt_s` (the signed cycle of `graded`'s conventions), `image_of` (the
dense matrix of an element under a realization) and `supertrace_form`
(str(rho(x) rho(y)) from dense matrix products) serve only the tests.

The library reads every coordinate in a span off one factorization of it
(`graded.factor_span`).  `solve_exact` is the reference solver it is
compared with: one fresh row reduction of an augmented system per target.
`restrict_reference` is `bialgebra.restrict` written on top of it, solving
every bracket and every delta value on its own.

The library's row reduction (`graded.rref`) is fraction-free on sparse
integer rows.  `rref_reference` is dense Gauss-Jordan in Fractions, sharing
no code with it; `solve_exact` and the references above reduce through it.
`sparse` and `dense` convert the rows of a dense matrix at the edges of a
test of the sparse kernels, and `matmul` is the dense product their
results are checked with.

A `Superalgebra` stores its table as ints over one denominator
(`int_table`) and derives `constants` and `bracket_basis` from it;
`from_half_table` mirrors a half table by super antisymmetry in ints.
`mirror_half_table` is that mirror written in Fractions, straight from
[e_j, e_i] = -(-1)^{|e_i||e_j|} [e_i, e_j].

The library's map checks add integer numerators over the images of a map
(`LinearMap.int_images`).  `apply_tensor2` is (phi (x) phi) on a rank-2
tensor through the public tensor operations in Fractions, the reference
that `check_bialgebra_homomorphism` is compared with.
"""

from superbialg.algebra import DependentVectors, Superalgebra, koszul
from superbialg.bialgebra import (
    Bialgebra, InhomogeneousInput, NotClosedUnderCobracket, dual_basis,
)
from superbialg.cohomology import Cochain
from superbialg.graded import (
    EVEN, Q, GradedBasis, Tensor, Tensor2, tensor, wedge,
)


def pairing_dual_bracket(b: Bialgebra) -> Superalgebra:
    """The bracket on g* paired against delta in the wedge basis (not
    validated); raises ValueError for a delta value that is not super-skew."""
    basis = b.basis
    par = basis.parity

    def pair(i, j, u, v):  # <e_i* (x) e_j*, e_u (x) e_v>
        return koszul(par(j), par(u)) if (i, j) == (u, v) else 0

    constants = {}
    for k in range(len(basis)):
        dk = b.delta.value(k)
        if dk is None:
            continue
        w = {(a, c): (x if a < c else x / 2)
             for (a, c), x in dk.entries.items() if a <= c}
        rebuilt = sum((wedge(basis.vector(a), basis.vector(c)).scale(x)
                       for (a, c), x in w.items()), Tensor2.zero(basis))
        if rebuilt != dk:
            raise ValueError(f"delta({basis.labels[k]}) is not super-skew")
        for (a, c), x in w.items():
            for i, j in {(a, c), (c, a)}:
                y = x * (pair(i, j, a, c)
                         - koszul(par(a), par(c)) * pair(i, j, c, a))
                constants[(i, j, k)] = constants.get((i, j, k), 0) + y
    return Superalgebra(dual_basis(basis), constants)


def fraction_rows(g: Superalgebra) -> list[list[dict]]:
    """rows[i][j] = {k: C(i,j,k)}, the table as Fraction rows built from
    `g.constants`."""
    rows = [[{} for _ in range(g.dim())] for _ in range(g.dim())]
    for (i, j, k), c in g.constants.items():
        rows[i][j][k] = c
    return rows


def super_cybe(g: Superalgebra, r: Tensor2) -> Tensor:
    """[[r,r]] = [r12,r13] + [r12,r23] + [r13,r23] for an even r."""
    if r.parity() not in (EVEN, None):
        raise ValueError("super_cybe takes an even r")
    par = g.basis.parities
    rows = fraction_rows(g)
    acc = {}

    def add(key, c):
        acc[key] = acc.get(key, 0) + c
    for (p, q), x in r.entries.items():
        for (s, t), y in r.entries.items():
            c = x * y
            sign = koszul(par[p], par[s])
            for k, z in rows[p][s].items():
                add((k, q, t), sign * c * z)
            for k, z in rows[q][s].items():
                add((p, k, t), c * z)
            for k, z in rows[q][t].items():
                add((p, s, k), sign * c * z)
    return Tensor(g.basis, acc, 3)


def adjoint_on_tensor3(g: Superalgebra, a: int, t: Tensor) -> Tensor:
    """e_a . (u (x) v (x) w) = [e_a,u] (x) v (x) w
    + (-1)^{|a||u|} u (x) [e_a,v] (x) w + (-1)^{|a|(|u|+|v|)} u (x) v (x) [e_a,w]."""
    par = g.basis.parities
    row = fraction_rows(g)[a]
    acc = {}
    for (u, v, w), c in t.entries.items():
        for k, z in row[u].items():
            acc[(k, v, w)] = acc.get((k, v, w), 0) + c * z
        s = koszul(par[a], par[u]) * c
        for k, z in row[v].items():
            acc[(u, k, w)] = acc.get((u, k, w), 0) + s * z
        s = koszul(par[a], par[u] + par[v]) * c
        for k, z in row[w].items():
            acc[(u, v, k)] = acc.get((u, v, k), 0) + s * z
    return Tensor(g.basis, acc, 3)


def adjoint_on_tensor2(g: Superalgebra, a: int, t: Tensor2) -> Tensor2:
    """e_a . (u (x) v) = [e_a,u] (x) v + (-1)^{|a||u|} u (x) [e_a,v], read
    straight off `fraction_rows` in Fractions."""
    par = g.basis.parities
    row = fraction_rows(g)[a]
    acc = {}
    for (u, v), c in t.entries.items():
        for k, z in row[u].items():
            acc[(k, v)] = acc.get((k, v), 0) + c * z
        s = koszul(par[a], par[u]) * c
        for k, z in row[v].items():
            acc[(u, k)] = acc.get((u, k), 0) + s * z
    return Tensor2(g.basis, g.basis, acc)


def is_ad_invariant3(g: Superalgebra, t: Tensor) -> bool:
    return all(adjoint_on_tensor3(g, a, t).is_zero() for a in range(g.dim()))


def alt_s(t):
    """Signed cyclic symmetrization of a rank-3 tensor.

    On a(x)b(x)c the three terms carry signs 1, (-1)^{|a|(|b|+|c|)} and
    (-1)^{|c|(|a|+|b|)} as the factors cycle left / right.
    """
    par = t.basis.parities
    acc = {}
    for (i, j, k), c in t.entries.items():
        for key, sign in (((i, j, k), 1),
                          ((j, k, i), koszul(par[i], par[j] + par[k])),
                          ((k, i, j), koszul(par[k], par[i] + par[j]))):
            acc[key] = acc.get(key, 0) + sign * c
    return t._with(acc)


def image_of(real, x):
    """rho(x), the dense (m+n) x (m+n) matrix of `x` under `real`."""
    d = real.m + real.n
    out = [[Q(0)] * d for _ in range(d)]
    images = real.images
    for i, c in x.entries.items():
        for r, row in enumerate(images[i]):
            for s, v in enumerate(row):
                out[r][s] += c * v
    return out


def supertrace_form(real, x, y):
    """str(rho(x) rho(y)) relative to the (m|n) block grading, from the
    dense product of the two images."""
    a, b = image_of(real, x), image_of(real, y)
    return sum((1 if i < real.m else -1) * a[i][j] * b[j][i]
               for i in range(len(a)) for j in range(len(a)))


def rref_reference(rows):
    """(reduced rows, pivot columns) by Gauss-Jordan on dense Fraction rows:
    each pivot row is divided by its pivot, then subtracted from the rest."""
    m = [[Q(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def rank(rows):
    return len(rref_reference(rows)[1])


def sparse(rows):
    """The rows of a dense matrix as {column: Fraction}, zeros dropped."""
    return [{k: Q(x) for k, x in enumerate(row) if x} for row in rows]


def dense(rows, ncols):
    """Sparse {column: value} rows as dense Fraction rows of ncols entries."""
    return [[row.get(k, Q(0)) for k in range(ncols)] for row in rows]


def matmul(a, b):
    """The product of two dense matrices."""
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in zip(*b)]
            for row in a]


def solve_exact(columns, target):
    """Solve sum_j x_j * columns[j] == target exactly; None if unsolvable."""
    if not columns:
        return [] if all(t == 0 for t in target) else None
    n = len(target)
    aug = [[columns[j][i] for j in range(len(columns))] + [target[i]]
           for i in range(n)]
    red, pivots = rref_reference(aug)
    ncols = len(columns)
    if ncols in pivots:
        return None  # inconsistent system
    x = [Q(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[-1]
    return x


def restrict_reference(b, sub, labels=None):
    """`bialgebra.restrict` with one `solve_exact` per bracket, and per
    delta value one per column of its n x n matrix, then one per row of
    those column coordinates."""
    g = b.algebra
    n = g.dim()
    for v in sub:
        if not v.is_homogeneous() or v.is_zero():
            raise InhomogeneousInput(f"sub vector {v} is not homogeneous")
    rows = [[v[k] for k in range(n)] for v in sub]
    if rank(rows) != len(sub):
        raise DependentVectors("restriction needs independent vectors")
    if labels is None:
        labels = [f"v{i}" for i in range(len(sub))]
    sub_basis = GradedBasis(labels, [v.parity() for v in sub])
    cols = [[v[k] for k in range(n)] for v in sub]

    constants = {}
    for i, vi in enumerate(sub):
        for j, vj in enumerate(sub):
            w = g.bracket(vi, vj)
            coeffs = solve_exact(cols, [w[k] for k in range(n)])
            if coeffs is None:
                raise NotClosedUnderCobracket(
                    f"bracket [{vi}, {vj}] leaves the span")
            for k, c in enumerate(coeffs):
                if c != 0:
                    constants[(i, j, k)] = c
    sub_alg = Superalgebra(sub_basis, constants)

    # delta(v) = sum x_ab sub[a] (x) sub[b]: column j of its matrix is
    # sum_a y_aj sub[a] with y_aj = sum_b x_ab sub[b][j], so the columns
    # give y and the rows of y give x
    def coordinates(targets):  # in the span, each; None at the first miss
        out = []
        for t in targets:  # the vectors are independent: 0 has coordinates 0
            out.append(solve_exact(cols, t) if any(t) else [0] * len(cols))
            if out[-1] is None:
                return None
        return out

    delta_sub = Cochain(sub_alg, 1, b.delta.parity)
    for s_idx, v in enumerate(sub):
        total = b.delta_of(v)
        ys = coordinates([total[(i, j)] for i in range(n)] for j in range(n))
        xs = None if ys is None else coordinates(
            [y[a] for y in ys] for a in range(len(sub)))
        if xs is None:
            raise NotClosedUnderCobracket(
                f"delta({v}) does not lie in span (x) span")
        entries = {(a, bb): c for a, row in enumerate(xs)
                   for bb, c in enumerate(row) if c != 0}
        if entries:
            delta_sub.set_value((s_idx,), Tensor2(sub_basis, sub_basis, entries))
    return Bialgebra(sub_alg, delta_sub)


def apply_tensor2(phi, t: Tensor2) -> Tensor2:
    """(phi (x) phi) t: both legs mapped, no sign (phi is even here)."""
    return sum((tensor(phi.images[i], phi.images[j]).scale(c)
                for (i, j), c in t.entries.items()),
               Tensor2.zero(phi.target))


def is_subalgebra_reference(g, vectors):
    """`algebra.is_subalgebra` with one `solve_exact` per bracket."""
    n = g.dim()
    cols = [[v[k] for k in range(n)] for v in vectors]
    if rank(cols) != len(vectors):
        raise DependentVectors("subalgebra test needs independent vectors")
    return all(solve_exact(cols, [w[k] for k in range(n)]) is not None
               for w in (g.bracket(a, b) for a in vectors for b in vectors))


def mirror_half_table(basis, half):
    """The full table {(i, j, k): Fraction} of a half table (i <= j), zero
    entries dropped: each (i, j, k), i < j, also gives (j, i, k) with
    -(-1)^{|e_i||e_j|} times its value."""
    par = basis.parities
    full = {}
    for (i, j, k), c in half.items():
        c = Q(c)
        if c == 0:
            continue
        full[(i, j, k)] = c
        if i != j:
            full[(j, i, k)] = c if par[i] == par[j] == 1 else -c
    return full
