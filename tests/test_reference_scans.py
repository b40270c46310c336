"""Cobracket, form and map checks against product-order reference scans.

`is_cocycle_1`, `check_compatibility`, `check_cojacobi` and
`check_invariance` add their terms into plain dicts, the first two in one
integer kernel that sums only the sorted pairs of a super antisymmetric
bracket; the map checks
(`check_homomorphism`, `check_bialgebra_homomorphism`, `check_f_equation`)
add integer numerators over the images of the map.  The references below
scan every basis pair (or vector, or triple) in product order through the
public tensor operations and the Fraction rows (the action on g (x) g is
the oracle's, not the library's integer kernel); on perturbed cochains and
forms both must agree on pass/fail and name the same first counterexample.  The degree-2
`coboundary` is the second route to the cocycle condition.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from superbialg import catalog as cat
from superbialg.algebra import BilinearForm, Superalgebra, check_invariance
from superbialg.bialgebra import (
    check_bialgebra_homomorphism, check_cojacobi, check_compatibility,
    check_f_equation,
)
from superbialg.cohomology import Cochain, coboundary, is_cocycle_1
from superbialg.graded import Element, LinearMap, Tensor, Tensor2

from oracles import adjoint_on_tensor2, alt_s, apply_tensor2

BASES = {
    "sl21": (cat.sl21, cat.delta_f, cat.supertrace_gram),
    "double of s": (lambda: cat.double_of_s().underlying,
                    lambda: cat.double_of_s().delta,
                    lambda: cat.double_of_s().form),
}

coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
index = st.integers(0, 7)


def _value(f: Cochain, k: int) -> Tensor2:
    v = f.value(k)
    return Tensor2.zero(f.g.basis) if v is None else v


def _f_of(f: Cochain, x: Element) -> Tensor2:
    out = Tensor2.zero(f.g.basis)
    for k, c in x.coeffs.items():
        out = out + _value(f, k).scale(c)
    return out


def pairwise_reference(g: Superalgebra, f: Cochain, p: int):
    """((a, b), lhs, rhs) at the first pair in product order with
    f([a,b]) = lhs != rhs = (-1)^{|a|p} a.f(b) - (-1)^{|b|(p+|a|)} b.f(a),
    or None."""
    par = g.basis.parities
    for a, b in product(range(g.dim()), repeat=2):
        lhs = _f_of(f, g.bracket_basis(a, b))
        rhs = (adjoint_on_tensor2(g, a, _value(f, b)).scale(
                   (-1) ** (par[a] * p))
               - adjoint_on_tensor2(g, b, _value(f, a)).scale(
                   (-1) ** (par[b] * (p + par[a]))))
        if lhs != rhs:
            return (a, b), lhs, rhs
    return None


def cocycle_reference(g: Superalgebra, f: Cochain) -> str | None:
    """The pairwise condition at p = |f|."""
    found = pairwise_reference(g, f, f.parity)
    if found is None:
        return None
    (a, b), lhs, rhs = found
    lab = g.basis.labels
    return (f"pair ({lab[a]}, {lab[b]}): f([a,b]) = {lhs} but "
            f"action side = {rhs}")


def compatibility_reference(g: Superalgebra, d: Cochain) -> str | None:
    """delta([a,b]) = a.delta(b) - (-1)^{|a||b|} b.delta(a): p = 0."""
    found = pairwise_reference(g, d, 0)
    if found is None:
        return None
    (a, b), lhs, rhs = found
    lab = g.basis.labels
    return f"pair ({lab[a]}, {lab[b]}): {lhs} != {rhs}"


def cojacobi_reference(g: Superalgebra, d: Cochain) -> str | None:
    """Alt of (delta (x) Id) delta(x), one basis vector x at a time."""
    for x in range(g.dim()):
        dx = d.value(x)
        if dx is None:
            continue
        entries = {}
        for (u, v), c in dx.entries.items():
            du = d.value(u)
            if du is not None:
                for (i, j), y in du.entries.items():
                    entries[(i, j, v)] = entries.get((i, j, v), 0) + c * y
        s = alt_s(Tensor(g.basis, entries, 3))
        if not s.is_zero():
            return f"at {g.basis.labels[x]}: cyclic sum = {s}"
    return None


def invariance_reference(g: Superalgebra, form: BilinearForm) -> str | None:
    lab, e = g.basis.labels, g.basis.vector
    for a, b, c in product(range(g.dim()), repeat=3):
        lhs = form.pair(g.bracket_basis(a, b), e(c))
        rhs = form.pair(e(a), g.bracket_basis(b, c))
        if lhs != rhs:
            return (f"<[{lab[a]},{lab[b]}],{lab[c]}> = {lhs} but "
                    f"<{lab[a]},[{lab[b]},{lab[c]}]> = {rhs}")
    return None


def _broken(g: Superalgebra, breaks) -> Superalgebra:
    """g with C(i,j,k) += c for each break and no mirror: a nonempty list
    usually leaves the table not super antisymmetric."""
    consts = dict(g.constants)
    for i, j, k, c in breaks:
        consts[(i, j, k)] = consts.get((i, j, k), 0) + c
    return Superalgebra(g.basis, consts)


def _detail(rep):
    check = rep.checks[0]
    return None if check.passed else check.detail


@given(name=st.sampled_from(sorted(BASES)),
       parity=st.integers(0, 1),
       changes=st.lists(st.tuples(index, index, index, coefficient),
                        max_size=3),
       breaks=st.lists(st.tuples(index, index, index, coefficient),
                       max_size=1))
@settings(max_examples=60, deadline=None)
def test_cochain_checks_match_product_order_references(
        name, parity, changes, breaks):
    algebra, delta, _ = BASES[name]
    g = _broken(algebra(), breaks)
    # the catalog cobracket, relabelled with the drawn parity, plus
    # c * e_i (x) e_j added to the value at e_k
    f = Cochain(g, 1, parity, dict(delta().values))
    for k, i, j, c in changes:
        f.set_value((k,), Tensor2(g.basis, g.basis, {(i, j): c}))
    cocycle = is_cocycle_1(g, f)
    assert _detail(cocycle) == cocycle_reference(g, f)
    # d(f) = 0 is the pairwise condition on the canonical pairs a <= b;
    # the pairs decide it exactly when the bracket is super antisymmetric
    if not breaks:
        assert coboundary(g, f).is_zero() == cocycle.passed
    elif cocycle.passed:
        assert coboundary(g, f).is_zero()
    assert _detail(check_compatibility(g, f)) == compatibility_reference(g, f)
    assert _detail(check_cojacobi(g, f)) == cojacobi_reference(g, f)


@given(name=st.sampled_from(sorted(BASES)),
       changes=st.lists(st.tuples(index, index, coefficient), max_size=2),
       breaks=st.lists(st.tuples(index, index, index, coefficient),
                       max_size=1))
@settings(max_examples=40, deadline=None)
def test_invariance_matches_product_order_reference(name, changes, breaks):
    algebra, _, form = BASES[name]
    g = _broken(algebra(), breaks)
    gram = [list(row) for row in form().gram]
    for i, j, c in changes:
        gram[i][j] += c
    perturbed = BilinearForm(g.basis, gram)
    assert (_detail(check_invariance(g, perturbed))
            == invariance_reference(g, perturbed))


def homomorphism_reference(phi, source, target) -> str | None:
    """phi([a,b]) = [phi(a), phi(b)] through `LinearMap.__call__` and
    `Superalgebra.bracket`, in Fractions."""
    lab = source.basis.labels
    for i, j in product(range(source.dim()), repeat=2):
        lhs = phi(source.bracket_basis(i, j))
        rhs = target.bracket(phi.images[i], phi.images[j])
        if lhs != rhs:
            return (f"phi[{lab[i]},{lab[j]}] = {lhs} but "
                    f"[phi {lab[i]}, phi {lab[j]}] = {rhs}")
    return None


def cobracket_reference(phi, source, target) -> str | None:
    """(phi (x) phi) delta_src(e_k) = delta_tgt(phi e_k), in Fractions."""
    for k in range(len(source.basis)):
        lhs = apply_tensor2(phi, source.delta_of(source.basis.vector(k)))
        rhs = target.delta_of(phi.images[k])
        if lhs != rhs:
            return (f"cobracket breaks on {source.basis.labels[k]}: "
                    f"{lhs} != {rhs}")
    return None


def f_equation_reference(g, f) -> str | None:
    """(f-1)[f(x), f(y)] = f([(f-1)(x), (f-1)(y)]), in Fractions."""
    fm1 = LinearMap(g.basis, g.basis, [im - v for im, v in zip(
        f.images, g.basis.vectors())])
    lab = g.basis.labels
    for i, j in product(range(g.dim()), repeat=2):
        x, y = g.basis.vector(i), g.basis.vector(j)
        lhs = fm1(g.bracket(f(x), f(y)))
        rhs = f(g.bracket(fm1(x), fm1(y)))
        if lhs != rhs:
            return f"pair ({lab[i]}, {lab[j]}): {lhs} != {rhs}"
    return None


def _named(rep, name):
    check = next(c for c in rep.checks if c.name == name)
    return None if check.passed else check.detail


MAPS = {  # name: (map, source bialgebra, target bialgebra)
    "i1": (cat.i1_map, cat.s_bialgebra_2, cat.bialgebra_f),
    "is1": (cat.is1_map, cat.t_bialgebra_2, cat.bialgebra_s),
    "double of s": (cat.double_s_identification,
                    lambda: cat.double_of_s().as_bialgebra(), cat.bialgebra_f),
}
image_change = st.tuples(st.integers(0, 15), index, coefficient)


@given(name=st.sampled_from(sorted(MAPS)),
       changes=st.lists(image_change, max_size=2))
@settings(max_examples=60, deadline=None)
def test_map_checks_match_product_order_references(name, changes):
    # c e_j added to the image of source vector i
    phi, source, target = (make() for make in MAPS[name])
    images = list(phi.images)
    for i, j, c in changes:
        i %= len(images)
        images[i] = images[i] + phi.target.vector(j).scale(c)
    phi = LinearMap(phi.source, phi.target, images)
    rep = check_bialgebra_homomorphism(phi, source, target)
    assert (_named(rep, "bracket preserved")
            == homomorphism_reference(phi, source.algebra, target.algebra))
    assert (_named(rep, "cobracket preserved")
            == cobracket_reference(phi, source, target))


@given(name=st.sampled_from(["f_map", "f_standard"]),
       changes=st.lists(st.tuples(index, index, coefficient), max_size=2))
@settings(max_examples=40, deadline=None)
def test_f_equation_matches_the_product_order_reference(name, changes):
    f = getattr(cat, name)()
    images = list(f.images)
    for i, j, c in changes:
        images[i] = images[i] + f.target.vector(j).scale(c)
    f = LinearMap(f.source, f.target, images)
    g = cat.sl21()
    assert (_detail(check_f_equation(g, f)) == f_equation_reference(g, f))
