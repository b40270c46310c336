"""The integer kernels above 16 dimensions, and a guard on their arithmetic.

Super Jacobi (of g, and of g* for coJacobi), the pairwise cocycle kernel
and the adjoint action on g (x) g sum integer numerators over one
denominator per table.  Here
they run on sl(3|1), sl(3|2) and sl(4|2) (15, 24 and 35 dims, see
tests/slmn.py) and are compared with independent derivations: the super
classical Yang-Baxter equation, the product-order reference scans and the
Leibniz rule read off the Fraction rows (`oracles.adjoint_on_tensor2`),
which `coboundary_0` is compared with one basis vector at a time.
The Jacobi kernel of `validate` is compared with a scan of the sorted
triples through `_jacobi_sum`, whose detail sums the public bracket, on
perturbed, reordered sl(3|1) and sl(3|2), the repeated-index triples
(a,a,c), (a,c,c) and (a,a,a) among them.  The pairwise kernel
(`cohomology._first_pairwise_failure`) and the details of `is_cocycle_1`
and `check_compatibility` are compared with the product-order reference
scan, at both parities, on perturbed cochains over reordered, perturbed
and non-antisymmetric tables, and on a first failure at a diagonal pair
(a, a) at every rung.  The guards
count Fraction arithmetic inside passing checks, inside the fraction-free
eliminations of `graded`, inside the paper's map and form checks, which
add integer numerators over `LinearMap.int_images` and
`BilinearForm.int_gram`, and inside the builders of a table (integer
realizations, `from_matrices`, `gram_matrix`, `from_half_table` and
`build_double`): there must be none.  The integer paths keep the
input contract of the Fraction code they replaced: a map or form over
another basis raises BasisMismatch.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbialg import catalog as cat
from superbialg.algebra import (
    BilinearForm, Superalgebra, check_homomorphism, check_invariance,
    from_matrices, gram_matrix,
)
from superbialg.bialgebra import (
    check_bialgebra_homomorphism, check_cojacobi, check_compatibility,
    check_f_equation, check_manin_triple, dual_algebra,
)
from superbialg.cohomology import (
    Cochain, _first_pairwise_failure, coboundary_0, is_cocycle_1,
)
from superbialg.double import build_double, identify
from superbialg.graded import (
    Q, BasisMismatch, GradedBasis, LinearMap, Tensor2, factor_span,
    invert_matrix, wedge,
)

import oracles
from slmn import realization, standard
from test_algebra import _jacobi_reference
from test_reference_scans import (
    _detail, cocycle_reference, cojacobi_reference, compatibility_reference,
    pairwise_reference,
)

RUNGS = [(3, 1), (3, 2), (4, 2)]
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def count_fraction_arithmetic(monkeypatch) -> dict:
    """Patch Fraction's arithmetic with counters; returns {name: calls}."""
    calls = {}
    for name in ARITHMETIC:
        def counted(*args, real=getattr(Fraction, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(Fraction, name, counted)
    return calls


@pytest.mark.parametrize("m,n", RUNGS)
def test_standard_bialgebra_verifies(m, n):
    g, _, b = standard(m, n)
    assert g.dim() == (m + n) ** 2 - 1
    rep = b.verify()
    assert rep.passed, rep
    assert len(rep.checks) == 9


@pytest.mark.parametrize("m,n", RUNGS)
def test_cojacobi_agrees_with_the_cybe(m, n):
    # when r + T(r) is ad-invariant, d(r) satisfies coJacobi iff [[r,r]]
    # is: the standard r passes both, and adding the even wedge
    # E12 ^ E13 / 3 (symmetric part unchanged) breaks both
    g, r, b = standard(m, n)
    assert check_cojacobi(g, b.delta).passed
    assert oracles.is_ad_invariant3(g, oracles.super_cybe(g, r))
    e = g.basis.vector
    bad = r + wedge(e("E12"), e("E13")).scale(Q(1, 3))
    assert not check_cojacobi(g, coboundary_0(g, bad)).passed
    assert not oracles.is_ad_invariant3(g, oracles.super_cybe(g, bad))


@pytest.mark.parametrize("m,n", RUNGS)
def test_perturbed_delta_names_the_reference_counterexample(m, n):
    # (E11+E_NN) ^ E1N / 3 added to delta(E1N), N = m + n: an odd value at
    # an odd vector
    g, _, b = standard(m, n)
    B = g.basis
    N = m + n
    h, x = B.index(f"E11+E{N}{N}"), B.index(f"E1{N}")
    delta = Cochain(g, 1, 0, {**b.delta.values, (x,): b.delta.value(x)
                              + wedge(B.vector(h), B.vector(x)).scale(Q(1, 3))})
    cocycle = _detail(is_cocycle_1(g, delta))
    assert cocycle is not None
    assert cocycle == cocycle_reference(g, delta)
    assert (_detail(check_compatibility(g, delta))
            == compatibility_reference(g, delta))
    cojacobi = _detail(check_cojacobi(g, delta))
    assert cojacobi == _jacobi_reference(dual_algebra(g, delta))
    assert (cojacobi is None) == (cojacobi_reference(g, delta) is None)


coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def _perturbed(m: int, n: int, order, changes) -> Superalgebra:
    """sl(m|n) with the basis vectors in `order` (labels, or indices of
    `standard(m, n)`) first and the rest after them, then c added to
    C(i,j,k) for each (i, j, k, c) of `changes` (labels, or indices in
    the new order) and the mirror kept super-antisymmetric; an even
    self-bracket stays zero."""
    g = standard(m, n)[0]
    B = g.basis
    order = [B.index(x) if isinstance(x, str) else x for x in order]
    order += [i for i in range(g.dim()) if i not in order]
    at = {old: new for new, old in enumerate(order)}
    basis = GradedBasis([B.labels[i] for i in order],
                        [B.parities[i] for i in order])
    par = basis.parities
    consts = {(at[i], at[j], at[k]): c for (i, j, k), c in g.constants.items()}
    for i, j, k, c in changes:
        i, j, k = (basis.index(x) if isinstance(x, str) else x
                   for x in (i, j, k))
        if i == j and not par[i]:
            continue
        consts[(i, j, k)] = consts.get((i, j, k), 0) + c
        if i != j:
            consts[(j, i, k)] = (consts.get((j, i, k), 0)
                                 - (-1 if par[i] and par[j] else 1) * c)
    return Superalgebra(basis, consts)


def _sorted_jacobi_scan(g: Superalgebra):
    """(the first sorted triple a <= b <= c whose `_jacobi_sum` is
    nonzero, the detail `validate` must give it), or (None, None); the
    detail's cyclic sum goes through the public bracket."""
    n, lab, par, e = g.dim(), g.basis.labels, g.basis.parities, g.basis.vector
    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                if any(g._jacobi_sum(a, b, c).values()):
                    total = g.basis.zero()
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        sign = -1 if par[x] and par[z] else 1
                        total = total + g.bracket(
                            e(x), g.bracket(e(y), e(z))).scale(sign)
                    return (a, b, c), (f"Jacobi fails on ({lab[a]},{lab[b]},"
                                       f"{lab[c]}): cyclic sum = {total}")
    return None, None


def _assert_jacobi_matches_the_sorted_scan(g: Superalgebra):
    triple, detail = _sorted_jacobi_scan(g)
    checks = {ch.name: ch for ch in g.validate().checks}
    assert checks["super antisymmetry"].passed
    assert g._first_jacobi_failure() == triple
    assert checks["super Jacobi"].passed == (triple is None)
    assert checks["super Jacobi"].detail == detail
    return triple


# an odd a: E14 is odd in sl(3|1) and in sl(3|2)
REPEATED = {
    # [E14, E14] = E41 puts -3 [E14, E41] into J(a, a, a), a first
    "(a,a,a)": (["E14"], [("E14", "E14", "E41", 1)]),
    # [E14, E14] = E24 commutes with E14: J(a, a, a) = 0, J(a, a, h) != 0
    "(a,a,c)": (["E14"], [("E14", "E14", "E24", 1)]),
    # [E14, E14] = E12 moves J(h, E14, E14) only, h the first Cartan
    "(a,c,c)": ([], [("E14", "E14", "E12", 1)]),
}


@pytest.mark.parametrize("m,n", [(3, 1), (3, 2)])
@pytest.mark.parametrize("shape", list(REPEATED))
def test_jacobi_kernel_on_repeated_indices(m, n, shape):
    a, b, c = _assert_jacobi_matches_the_sorted_scan(
        _perturbed(m, n, *REPEATED[shape]))
    assert shape == f"(a,{'a' if b == a else 'c'},{'a' if c == a else 'c'})"


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_jacobi_kernel_matches_the_sorted_scan(data):
    # sl(3|1) and sl(3|2) on a drawn basis order, with antisymmetric
    # changes: the first failing triple and its detail are the sorted
    # scan's
    m, n = data.draw(st.sampled_from([(3, 1), (3, 2)]))
    size = (m + n) ** 2 - 1
    index = st.integers(0, size - 1)
    order = data.draw(st.permutations(range(size)))
    changes = data.draw(st.lists(st.tuples(index, index, index, coefficient),
                                 max_size=3))
    _assert_jacobi_matches_the_sorted_scan(_perturbed(m, n, order, changes))


@given(name=st.sampled_from(["sl21", "double of s"]),
       t=st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                         coefficient, max_size=6))
@settings(max_examples=60, deadline=None)
def test_adjoint_action_matches_the_leibniz_oracle(name, t):
    # coboundary_0 takes one parity p of t at a time, d(t_p)(e_i) =
    # (-1)^{|e_i| p} e_i . t_p; a mixed t acts through its two parts
    g = cat.sl21() if name == "sl21" else cat.double_of_s().underlying
    B = g.basis
    par = B.parities
    zero = Tensor2.zero(B)
    d = [coboundary_0(g, Tensor2(B, B, {(u, v): c for (u, v), c in t.items()
                                        if par[u] ^ par[v] == p}))
         for p in (0, 1)]
    for i in range(len(B)):
        got = sum(((d[p].value(i) or zero).scale(-1 if par[i] & p else 1)
                   for p in (0, 1)), zero)
        assert got == oracles.adjoint_on_tensor2(g, i, Tensor2(B, B, t))


def _reindexed(g: Superalgebra, delta: Cochain, parity: int) -> Cochain:
    """delta carried to g, whose basis holds the same labels in another
    order, and declared of the given parity."""
    B = g.basis
    at = [B.index(lab) for lab in delta.g.basis.labels]
    return Cochain(g, 1, parity, {
        (at[k],): Tensor2(B, B, {(at[i], at[j]): c
                                 for (i, j), c in v.entries.items()})
        for (k,), v in delta.values.items()})


def _plus(f: Cochain, changes) -> Cochain:
    """f with c e_i (x) e_j added to f(e_k) for each (k, i, j, c)."""
    B, values = f.g.basis, dict(f.values)
    for k, i, j, c in changes:
        values[(k,)] = (values.get((k,), Tensor2.zero(B))
                        + Tensor2(B, B, {(i, j): c}))
    return Cochain(f.g, 1, f.parity, values)


def _assert_pairwise_matches_the_reference(g: Superalgebra, f: Cochain):
    found = pairwise_reference(g, f, f.parity)
    assert _first_pairwise_failure(g, f, f.parity) == (found and found[0])
    assert _detail(is_cocycle_1(g, f)) == cocycle_reference(g, f)
    assert (_detail(check_compatibility(g, f))
            == compatibility_reference(g, f))
    return found and found[0]


@pytest.mark.parametrize("m,n", RUNGS)
@pytest.mark.parametrize("parity", [0, 1])
def test_pairwise_kernel_on_a_diagonal_pair(m, n, parity):
    # the odd E1N first, and E_N1 (x) e_1 added to its value: the first
    # failing pair is (E1N, E1N), where s and s' add up
    N = m + n
    g = _perturbed(m, n, [f"E1{N}"], [])
    f = _plus(_reindexed(g, standard(m, n)[2].delta, parity),
              [(0, g.basis.index(f"E{N}1"), 1, 1)])
    assert _assert_pairwise_matches_the_reference(g, f) == (0, 0)


SPARSE = GradedBasis(["h", "e", "x", "y"], [0, 0, 1, 1])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pairwise_kernel_matches_the_product_order_scan(data):
    # sl(2|1) or sl(3|1) on a drawn basis order, with antisymmetric changes
    # to the table and at most one that breaks antisymmetry; or a sparse
    # table on (h, e | x, y) under no sign rule, where the first failing
    # pair is often unsorted.  Then c e_i (x) e_j is added to f(e_k), at
    # either parity: the kernel's pair and both reports' details are the
    # reference scan's
    if data.draw(st.booleans()):
        m, n = data.draw(st.sampled_from([(2, 1), (3, 1)]))
        size = (m + n) ** 2 - 1
        change = st.tuples(*[st.integers(0, size - 1)] * 3, coefficient)
        order = data.draw(st.permutations(range(size)))
        g = _perturbed(m, n, order, data.draw(st.lists(change, max_size=2)))
        consts = dict(g.constants)
        for i, j, k, c in data.draw(st.lists(change, max_size=1)):
            consts[(i, j, k)] = consts.get((i, j, k), 0) + c
        g = Superalgebra(g.basis, consts)
        f = _reindexed(g, standard(m, n)[2].delta,
                       data.draw(st.integers(0, 1)))
    else:
        change = st.tuples(*[st.integers(0, 3)] * 3, coefficient)
        g = Superalgebra(SPARSE, {(i, j, k): c for i, j, k, c in data.draw(
            st.lists(change, max_size=4))})
        f = Cochain(g, 1, data.draw(st.integers(0, 1)))
    _assert_pairwise_matches_the_reference(
        g, _plus(f, data.draw(st.lists(change, max_size=3))))


def test_passing_checks_do_no_fraction_arithmetic(monkeypatch):
    # a fresh copy of sl(3|1), so that building its integer table is
    # counted too; the standard cobracket has entries 1/2
    g0, _, b = standard(3, 1)
    g = Superalgebra(g0.basis, g0.constants)
    delta = Cochain(g, 1, 0, b.delta.values)
    calls = count_fraction_arithmetic(monkeypatch)
    reports = [g.validate(), is_cocycle_1(g, delta),
               check_compatibility(g, delta), check_cojacobi(g, delta)]
    kernels = dict(calls)
    Fraction(1, 2) * 3  # the counter counts
    monkeypatch.undo()
    assert all(rep.passed for rep in reports)
    assert kernels == {}
    assert calls.get("__mul__", 0) > 0


def test_eliminations_do_no_fraction_arithmetic(monkeypatch):
    # the two eliminations of the sl(3|2) ladder rung: the inverse of the
    # supertrace Gram matrix (casimir) and the factored span of the
    # flattened images (from_matrices)
    real = realization(3, 2)
    gram = gram_matrix(real).gram
    flat = [{(r, c): x for r, row in sp.items() for c, x in row.items()}
            for sp in real.sparse]
    columns = list(product(range(5), repeat=2))
    rows = oracles.sparse(gram)
    calls = count_fraction_arithmetic(monkeypatch)
    inverse = invert_matrix(rows)
    span = factor_span(flat, columns)
    kernels = dict(calls)
    oracles.rref_reference(gram)  # the counter counts
    monkeypatch.undo()
    assert kernels == {}
    assert calls.get("__truediv__", 0) > 0
    identity = [[Q(int(i == j)) for j in range(24)] for i in range(24)]
    assert oracles.matmul(gram, oracles.dense(inverse, 24)) == identity
    assert span is not None and len(span[0]) == 24


def test_table_builds_do_no_fraction_arithmetic(monkeypatch):
    # the layers that build a table: sl(3|2) from its integer matrices and
    # its supertrace Gram matrix, an integer half table, and the double of
    # the sl(3|1) standard bialgebra (its verify included)
    g32 = standard(3, 2)[0]
    half = {(i, j, k): int(c) for (i, j, k), c in g32.constants.items()
            if i <= j}
    assert all(c.denominator == 1 for c in g32.constants.values())
    b = standard(3, 1)[2]
    calls = count_fraction_arithmetic(monkeypatch)
    real = realization(3, 2)
    g = from_matrices(real)
    form = gram_matrix(real)
    h = Superalgebra.from_half_table(g32.basis, half)
    d = build_double(b)
    kernels = dict(calls)
    Fraction(1, 2) * 3  # the counter counts
    monkeypatch.undo()
    assert kernels == {}
    assert calls.get("__mul__", 0) > 0
    assert g.int_table == h.int_table == g32.int_table
    assert form.is_nondegenerate()
    assert d.axioms.passed and d.underlying.dim() == 30


PAPER_MAP_CHECKS = {
    "f-equation of f": lambda: check_f_equation(cat.sl21(), cat.f_map()),
    "f-equation of the standard f": lambda: check_f_equation(
        cat.sl21(), cat.f_standard()),
    "i1": lambda: check_bialgebra_homomorphism(
        cat.i1_map(), cat.s_bialgebra_2(), cat.bialgebra_f()),
    "double of s": lambda: identify(
        cat.double_of_s(), cat.bialgebra_f(), cat.double_s_identification(),
        cat.supertrace_gram()),
    "Manin triple (S2, S1)": lambda: check_manin_triple(cat.manin_triple_s()),
    "invariance on the double": lambda: check_invariance(
        cat.double_of_s().underlying, cat.double_of_s().form),
}


@pytest.mark.parametrize("name", list(PAPER_MAP_CHECKS))
def test_paper_map_checks_do_no_fraction_arithmetic(name, monkeypatch):
    check = PAPER_MAP_CHECKS[name]
    assert check().passed  # builds the catalog and the integer forms
    calls = count_fraction_arithmetic(monkeypatch)
    rep = check()
    kernels = dict(calls)
    cat.f_map()(cat.V("E12"))  # the counter counts
    monkeypatch.undo()
    assert rep.passed
    assert kernels == {}
    assert calls.get("__mul__", 0) > 0


def _relabelled(basis: GradedBasis) -> GradedBasis:
    """A basis of the same size and parities under other labels."""
    return GradedBasis([lab + "'" for lab in basis.labels], basis.parities)


def test_homomorphism_from_another_basis_raises():
    phi = cat.i1_map()
    other = LinearMap(_relabelled(phi.source), phi.target, phi.images)
    with pytest.raises(BasisMismatch, match="map does not connect"):
        check_homomorphism(other, cat.s_algebra(), cat.sl21())
    with pytest.raises(BasisMismatch, match="map does not connect"):
        check_homomorphism(phi, cat.s_algebra(), cat.s_algebra())


def test_invariance_of_a_form_over_another_basis_raises():
    gram = cat.supertrace_gram()
    other = BilinearForm(_relabelled(gram.basis), gram.gram)
    with pytest.raises(BasisMismatch) as raised:
        check_invariance(cat.sl21(), other)
    assert str(raised.value) == (
        f"bases differ: {other.basis!r} vs {cat.sl21().basis!r}")


def test_identify_with_a_target_form_over_another_basis_raises():
    gram = cat.supertrace_gram()
    other = BilinearForm(_relabelled(gram.basis), gram.gram)
    with pytest.raises(BasisMismatch) as raised:
        identify(cat.double_of_s(), cat.bialgebra_f(),
                 cat.double_s_identification(), other)
    assert str(raised.value) == (
        f"bases differ: {gram.basis!r} vs {other.basis!r}")
