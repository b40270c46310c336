"""Independent reference derivations that tests compare the library against.

The library derives the dual bracket from the constant exchange
(`bialgebra.dual_constants`); the oracle here unwinds the graded pairing

    <a* (x) b*, u (x) v> = (-1)^{|b*||u|} a*(u) b*(v)

over a basis instead, reading delta(e_k) entry by entry:

    [e_i*, e_j*] = sum_k (-1)^{|e_i||e_j|} delta(e_k)_{ij} e_k*.

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
"""

from superbialg.algebra import Superalgebra, koszul
from superbialg.bialgebra import Bialgebra, dual_basis
from superbialg.graded import EVEN, Tensor2, Tensor3


def pairing_dual_bracket(b: Bialgebra) -> Superalgebra:
    """The bracket on g* defined by pairing against delta (not validated)."""
    par = b.basis.parity
    constants = {}
    for k in range(len(b.basis)):
        dk = b.delta.value(k)
        if dk is None:
            continue
        for (i, j), c in dk.entries.items():
            constants[(i, j, k)] = (constants.get((i, j, k), 0)
                                    + koszul(par(i), par(j)) * c)
    return Superalgebra(dual_basis(b.basis), constants)


def super_cybe(g: Superalgebra, r: Tensor2) -> Tensor3:
    """[[r,r]] = [r12,r13] + [r12,r23] + [r13,r23] for an even r."""
    if r.parity() not in (EVEN, None):
        raise ValueError("super_cybe takes an even r")
    par = g.basis.parities
    acc = {}

    def add(key, c):
        acc[key] = acc.get(key, 0) + c
    for (p, q), x in r.entries.items():
        for (s, t), y in r.entries.items():
            c = x * y
            sign = koszul(par[p], par[s])
            for k, z in g.rows[p][s].items():
                add((k, q, t), sign * c * z)
            for k, z in g.rows[q][s].items():
                add((p, k, t), c * z)
            for k, z in g.rows[q][t].items():
                add((p, s, k), sign * c * z)
    return Tensor3((g.basis,) * 3, acc)


def adjoint_on_tensor3(g: Superalgebra, a: int, t: Tensor3) -> Tensor3:
    """e_a . (u (x) v (x) w) = [e_a,u] (x) v (x) w
    + (-1)^{|a||u|} u (x) [e_a,v] (x) w + (-1)^{|a|(|u|+|v|)} u (x) v (x) [e_a,w]."""
    par = g.basis.parities
    row = g.rows[a]
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
    return Tensor3((g.basis,) * 3, acc)


def is_ad_invariant3(g: Superalgebra, t: Tensor3) -> bool:
    return all(adjoint_on_tensor3(g, a, t).is_zero() for a in range(g.dim()))
