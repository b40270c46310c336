"""sl(m|n) from elementary matrices and its standard r-matrix, for tests.

Basis order: the Cartan elements h_i = E_ii -+ E_NN (i < N = m + n, the
sign chosen so that the supertrace vanishes), then for each pair i < j the
root vectors E_ij, E_ji.  For (2|1) this is the catalog's sl(2,1) basis.
"""

from functools import cache

from superbialg import (
    Bialgebra, GradedBasis, MatrixRealization, Tensor2, casimir,
    coboundary_0, from_matrices,
)


def realization(m: int, n: int) -> MatrixRealization:
    N = m + n
    odd = [i >= m for i in range(N)]
    labels, parities, images = [], [], []

    def add(label, parity, entries):
        mat = [[0] * N for _ in range(N)]
        for (r, c), v in entries.items():
            mat[r][c] = v
        labels.append(label)
        parities.append(parity)
        images.append(mat)

    for i in range(N - 1):
        sign = -1 if odd[i] else 1
        add(f"E{i + 1}{i + 1}{'+' if sign == 1 else '-'}E{N}{N}", 0,
            {(i, i): 1, (N - 1, N - 1): sign})
    for i in range(N):
        for j in range(i + 1, N):
            parity = int(odd[i] != odd[j])
            add(f"E{i + 1}{j + 1}", parity, {(i, j): 1})
            add(f"E{j + 1}{i + 1}", parity, {(j, i): 1})
    return MatrixRealization(GradedBasis(labels, parities), m, n, images)


@cache
def standard(m: int, n: int):
    """(g, r, unchecked bialgebra): r is omega/2 on the Cartan block plus
    the omega entries e_a (x) e_-a over the positive roots a, and the
    cobracket is d(r)."""
    real = realization(m, n)
    g = from_matrices(real)
    omega = casimir(real, g)
    cartan = m + n - 1
    entries = {(i, j): c / 2 for (i, j), c in omega.entries.items()
               if i < cartan and j < cartan}
    for pos in range(cartan, g.dim(), 2):  # E_ij (i < j), then E_ji
        entries[(pos, pos + 1)] = omega[(pos, pos + 1)]
    r = Tensor2(g.basis, g.basis, entries)
    return g, r, Bialgebra(g, coboundary_0(g, r), check=False)
