"""Independent reference derivations that tests compare the library against.

The library derives the dual bracket from the constant exchange
(`bialgebra.dual_constants`); the oracle here unwinds the graded pairing

    <a* (x) b*, u (x) v> = (-1)^{|b*||u|} a*(u) b*(v)

over a basis instead, reading delta(e_k) entry by entry:

    [e_i*, e_j*] = sum_k (-1)^{|e_i||e_j|} delta(e_k)_{ij} e_k*.
"""

from superbialg.algebra import Superalgebra, koszul
from superbialg.bialgebra import Bialgebra, dual_basis


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
