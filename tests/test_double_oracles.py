"""Oracle checks on the doubles `build_double` builds.

`build_double` verifies the bialgebra it doubles (`Bialgebra.verify`) and
checks nothing on the 2n-dim double: by the Manin-triple theorem that one
report decides the double.  Here every double the tests build is checked
directly: its bracket axioms (`validate`), the invariance of its pairing,
its canonical r (`check_canonical_r`), the bialgebra checks on its
cobracket (super-skew values, `is_cocycle_1`, `check_cojacobi`) and the
super classical Yang-Baxter oracle `oracles.super_cybe`.
"""

import json
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbialg import catalog as cat
from superbialg import serialize as ser
from superbialg.algebra import (
    MatrixRealization, Superalgebra, check_invariance, from_matrices,
)
from superbialg.bialgebra import (
    Bialgebra, InvalidBialgebra, casimir, check_cojacobi, check_unitarity,
    cocommutator,
)
from superbialg.cohomology import Cochain, coboundary_0, is_cocycle_1
from superbialg.double import build_double, check_canonical_r, dual_bialgebra
from superbialg.graded import (
    GradedBasis, Q, Tensor2, is_super_skew, koszul, super_swap,
)

from oracles import is_ad_invariant3, super_cybe

GOLDEN_21 = Path(__file__).parent / "golden" / "inputs" / "sl21-seed1.json"


def sl_standard_bialgebra(m: int, n: int) -> Bialgebra:
    """sl(m|n) from elementary matrices with the cobracket of its standard r:
    half the Cartan block of omega plus omega on e_a (x) e_-a for the
    positive roots a."""
    N = m + n
    labels, parities, images = [], [], []

    def add(label, parity, entries):
        mat = [[Q(0)] * N for _ in range(N)]
        for (i, j), c in entries.items():
            mat[i][j] = Q(c)
        labels.append(label)
        parities.append(parity)
        images.append(mat)
    for i in range(N - 1):
        add(f"h{i + 1}", 0, {(i, i): 1, (N - 1, N - 1): -1 if i >= m else 1})
    roots = []
    for i in range(N):
        for j in range(i + 1, N):
            roots.append(len(labels))
            add(f"E{i + 1}{j + 1}", int((i >= m) != (j >= m)), {(i, j): 1})
            add(f"E{j + 1}{i + 1}", int((i >= m) != (j >= m)), {(j, i): 1})
    real = MatrixRealization(GradedBasis(labels, parities), m, n, images)
    g = from_matrices(real)
    omega = casimir(real, g)
    r = {(i, j): c / 2 for (i, j), c in omega.entries.items()
         if i < N - 1 and j < N - 1}
    for pos in roots:
        r[(pos, pos + 1)] = omega[(pos, pos + 1)]
    return Bialgebra(g, coboundary_0(g, Tensor2(g.basis, g.basis, r)),
                     check=False)


@cache
def double_of(name: str):
    if name == "double of s":
        return cat.double_of_s()
    if name == "double of t":
        return cat.double_of_t()
    if name == "golden (2|1) input":
        return build_double(ser.bialgebra_from_json(
            json.loads(GOLDEN_21.read_text())))
    return build_double(sl_standard_bialgebra(3, 1))


DOUBLES = ["double of s", "double of t", "golden (2|1) input",
           "(3|1) standard"]


def assert_double_checks_pass(d) -> None:
    assert d.underlying.validate().passed
    assert check_invariance(d.underlying, d.form).passed
    assert check_canonical_r(d).passed
    assert all(map(is_super_skew, d.delta.values.values()))
    assert is_cocycle_1(d.underlying, d.delta).passed
    assert check_cojacobi(d.underlying, d.delta).passed


@pytest.mark.parametrize("name", DOUBLES)
def test_double_cobracket_passes_the_bialgebra_checks(name):
    assert_double_checks_pass(double_of(name))


@pytest.mark.parametrize("name", DOUBLES)
def test_canonical_r_solves_the_super_cybe(name):
    d = double_of(name)
    assert super_cybe(d.underlying, d.canonical_r).is_zero()


def test_build_double_checks_the_cobracket_through_r_alone(monkeypatch):
    # one verification of the 8-dim bialgebra, and no call on its 16-dim
    # double: no validate, check_invariance or check_canonical_r
    calls = []

    def dim(x):
        return getattr(x, "underlying", getattr(x, "algebra", x)).dim()

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(x, *args):
            calls.append((name, dim(x)))
            return real(x, *args)
        monkeypatch.setattr(owner, name, counted)
    counting(Bialgebra, "verify")
    counting(Superalgebra, "validate")
    for name in ("check_invariance", "check_canonical_r", "is_cocycle_1",
                 "check_cojacobi"):
        for module in [m for n, m in sys.modules.items()
                       if n.startswith("superbialg")]:
            if hasattr(module, name):
                counting(module, name)
    d = build_double(cat.bialgebra_f())
    assert d.underlying.dim() == 16
    assert calls == [("verify", 8), ("validate", 8), ("is_cocycle_1", 8),
                     ("check_cojacobi", 8)]


# -- coJacobi of d(r) against the super CYBE ------------------------------------

def _same_parity_pair(draw_i, draw_j):
    """An index pair of equal parity over sl(2,1): 0..3 even, 4..7 odd."""
    return draw_i, (draw_j % 4) + (4 if draw_i >= 4 else 0)


@given(base=st.sampled_from(["r_f", "r_standard"]),
       changes=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                  st.fractions(-2, 2, max_denominator=2)),
                        max_size=2))
@settings(max_examples=30, deadline=None)
def test_cojacobi_holds_iff_the_cybe_is_invariant(base, changes):
    # r + (t - T(t)) keeps r + T(r) = omega, so d(r) stays a skew cocycle
    g = cat.sl21()
    r = getattr(cat, base)()
    for i, j, c in changes:
        t = Tensor2(g.basis, g.basis, {_same_parity_pair(i, j): c})
        r = r + t - super_swap(t)
    assert check_unitarity(r, cat.omega()).passed
    delta = cocommutator(g, r)
    assert (check_cojacobi(g, delta).passed
            == is_ad_invariant3(g, super_cybe(g, r)))


# -- every double build_double accepts passes the bialgebra checks --------------

BASES = {
    "s": cat.s_bialgebra_2,
    "t": cat.t_bialgebra_2,
    "sl21 delta_s": cat.bialgebra_s,
}


def _perturbed(b: Bialgebra, kind: str, k: int, i: int, j: int, c) -> Bialgebra:
    """b with delta or the bracket scaled by c, or c * e_i ^ e_j added to
    delta(e_k) (indices taken modulo the dimension)."""
    n = b.algebra.dim()
    k, i, j = k % n, i % n, j % n
    par = b.basis.parity
    g = b.algebra
    if kind == "scale bracket":
        g = Superalgebra(b.basis, {key: c * v
                                   for key, v in g.constants.items()})
    values = {args: (v.scale(c) if kind == "scale delta" else v)
              for args, v in b.delta.values.items()}
    delta = Cochain(g, 1, 0, values)
    if kind == "wedge" and not (i == j and par(i) == 0):
        ent = {(i, i): 2 * c} if i == j else {
            (i, j): c, (j, i): -koszul(par(i), par(j)) * c}
        delta.set_value((k,), Tensor2(b.basis, b.basis, ent))
    return Bialgebra(g, delta, check=False)


@given(base=st.sampled_from(sorted(BASES)),
       kinds=st.lists(st.sampled_from(["scale delta", "scale bracket",
                                       "wedge"]), min_size=1, max_size=2),
       k=st.integers(0, 7), i=st.integers(0, 7), j=st.integers(0, 7),
       c=st.sampled_from([Q(-2), Q(-1), Q(1, 2), Q(3)]))
@settings(max_examples=30, deadline=None)
def test_every_accepted_double_passes_the_bialgebra_checks(base, kinds, k, i,
                                                           j, c):
    b = BASES[base]()
    for kind in kinds:
        b = _perturbed(b, kind, k, i, j, c)
    try:  # whenever the dual bialgebra is returned, its algebra validates
        assert dual_bialgebra(b).algebra.validate().passed
    except InvalidBialgebra:
        pass
    try:
        d = build_double(b)
    except InvalidBialgebra:
        return
    assert_double_checks_pass(d)
