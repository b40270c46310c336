"""Concrete objects for the sl(2,1) study and their reference tables.

Everything displayed in the source tables is either an input (the matrix
realization, the map f, the standard r-matrix) or is recomputed here.  The
constructors only build; the fixtures of `verify paper` make the checks.
The one check here, which no fixture makes, is that a restricted bracket
equals the abstract relations of s or t; a mismatch raises FixtureMismatch.
The displayed maps are `LinearMap`s and the dual bracket tables algebras
on s* from their half tables, each built once and cached.
"""

from __future__ import annotations

from functools import cache

from .graded import (
    EVEN, ODD, Q, Element, GradedBasis, LinearMap, Tensor2, tensor, wedge,
)
from .algebra import (
    BilinearForm, MatrixRealization, Superalgebra, from_matrices, gram_matrix,
)
from .bialgebra import (
    Bialgebra, ManinTriple, casimir, cocommutator, dual_basis, r_of_f,
    restrict, solve_f_from_r,
)
from .cohomology import Cochain
from .double import DoubleAlgebra, build_double


class FixtureMismatch(AssertionError):
    """A recomputed object disagrees with its stored reference table."""


# ---------------------------------------------------------------------------
# sl(2,1)
# ---------------------------------------------------------------------------

SL21_LABELS = ("E11+E33", "E22+E33", "E12", "E21", "E13", "E31", "E23", "E32")
SL21_PARITIES = (EVEN, EVEN, EVEN, EVEN, ODD, ODD, ODD, ODD)


@cache
def sl21_basis() -> GradedBasis:
    return GradedBasis(SL21_LABELS, SL21_PARITIES)


@cache
def sl21_realization() -> MatrixRealization:
    def unit(*cells):  # the 3x3 integer matrix with 1 at each (i, j), 1-based
        return [[int((i, j) in cells) for j in (1, 2, 3)] for i in (1, 2, 3)]
    return MatrixRealization(sl21_basis(), 2, 1, [
        unit((1, 1), (3, 3)), unit((2, 2), (3, 3)), unit((1, 2)),
        unit((2, 1)), unit((1, 3)), unit((3, 1)), unit((2, 3)), unit((3, 2))])


@cache
def sl21() -> Superalgebra:
    return from_matrices(sl21_realization())


def V(label: str) -> Element:
    """Basis vector of sl(2,1) by label."""
    return sl21_basis().vector(label)


@cache
def supertrace_gram() -> BilinearForm:
    return gram_matrix(sl21_realization())


# ---------------------------------------------------------------------------
# the map f, the invariant tensor, and the two r-matrices
# ---------------------------------------------------------------------------

@cache
def f_map() -> LinearMap:
    b = sl21_basis()
    images = [
        b.zero(),                    # E11+E33 -> 0
        V("E22+E33"),
        V("E12"),
        b.zero(),                    # E21 -> 0
        V("E13"),
        -1 * V("E13"),               # E31 -> -E13
        b.zero(),                    # E23 -> 0
        V("E23") + V("E32"),         # E32 -> E23 + E32
    ]
    return LinearMap(b, b, images)


def _tensor_sum(terms) -> Tensor2:
    return sum((tensor(a, b) for a, b in terms), Tensor2.zero(sl21_basis()))


def _omega_expected() -> Tensor2:
    return _tensor_sum([
        (V("E11+E33"), -1 * V("E22+E33")),
        (-1 * V("E22+E33"), V("E11+E33")),
        (V("E12"), V("E21")),
        (V("E21"), V("E12")),
        (-1 * V("E13"), V("E31")),
        (V("E31"), V("E13")),
        (-1 * V("E23"), V("E32")),
        (V("E32"), V("E23")),
    ])


@cache
def omega() -> Tensor2:
    return casimir(sl21_realization(), sl21())


def _r_f_expected() -> Tensor2:
    return _tensor_sum([
        (-1 * V("E22+E33"), V("E11+E33")),
        (V("E12"), V("E21")),
        (-1 * V("E13"), V("E31")),
        (V("E32"), V("E23")),
        (-1 * V("E13"), V("E13")),
        (V("E23"), V("E23")),
    ])


@cache
def r_f() -> Tensor2:
    return r_of_f(f_map(), omega())


@cache
def r_standard() -> Tensor2:
    return _tensor_sum([
        (-1 * V("E22+E33"), V("E11+E33")),
        (V("E12"), V("E21")),
        (-1 * V("E13"), V("E31")),
        (V("E32"), V("E23")),
    ])


@cache
def f_standard() -> LinearMap:
    """The (undisplayed) map with (f (x) 1) omega = r_standard."""
    return solve_f_from_r(r_standard(), omega())


# ---------------------------------------------------------------------------
# cocommutator tables
# ---------------------------------------------------------------------------

def _wedge_sum(terms) -> Tensor2:
    return sum((wedge(a, b) for a, b in terms), Tensor2.zero(sl21_basis()))


@cache
def delta_f_table() -> dict[str, Tensor2]:
    """The eight displayed values of delta_f, stored in wedge form."""
    z = Tensor2.zero(sl21_basis())
    return {
        "E11+E33": _wedge_sum([(-1 * V("E23"), V("E23"))]),
        "E22+E33": _wedge_sum([(V("E13"), V("E13"))]),
        "E21": _wedge_sum([(V("E21"), V("E11+E33")),
                           (-1 * V("E23"), V("E13") + V("E31"))]),
        "E12": _wedge_sum([(V("E12"), -1 * V("E22+E33")),
                           (V("E13"), V("E23") + V("E32"))]),
        "E23": z,
        "E13": z,
        "E31": _wedge_sum([(V("E13") + V("E31"), V("E11+E33")),
                           (V("E21"), V("E23"))]),
        "E32": _wedge_sum([(V("E23") + V("E32"), -1 * V("E22+E33")),
                           (-1 * V("E12"), V("E13"))]),
    }


@cache
def delta_s_table() -> dict[str, Tensor2]:
    z = Tensor2.zero(sl21_basis())
    return {
        "E11+E33": z,
        "E22+E33": z,
        "E21": _wedge_sum([(V("E21"), V("E11+E33")),
                           (-1 * V("E23"), V("E31"))]),
        "E12": _wedge_sum([(V("E12"), -1 * V("E22+E33")),
                           (V("E13"), V("E32"))]),
        "E23": z,
        "E13": z,
        "E31": _wedge_sum([(V("E31"), V("E11+E33"))]),
        "E32": _wedge_sum([(V("E32"), -1 * V("E22+E33"))]),
    }


@cache
def delta_f() -> Cochain:
    return cocommutator(sl21(), r_f())


@cache
def delta_s() -> Cochain:
    return cocommutator(sl21(), r_standard())


@cache
def bialgebra_f() -> Bialgebra:
    return Bialgebra(sl21(), delta_f())


@cache
def bialgebra_s() -> Bialgebra:
    return Bialgebra(sl21(), delta_s())


# ---------------------------------------------------------------------------
# the four-dimensional algebras and the distinguished subspaces
# ---------------------------------------------------------------------------

S_LABELS = ("h", "x", "y1", "y2")
S_PARITIES = (EVEN, EVEN, ODD, ODD)


@cache
def s_basis() -> GradedBasis:
    return GradedBasis(S_LABELS, S_PARITIES)


@cache
def s_algebra() -> Superalgebra:
    # [h,x] = -x, [h,y1] = -y1, [x,y2] = y1, [y1,y2] = x, [y2,y2] = 2h
    return Superalgebra.from_half_table(s_basis(), {
        (0, 1, 1): Q(-1),
        (0, 2, 2): Q(-1),
        (1, 3, 2): Q(1),
        (2, 3, 1): Q(1),
        (3, 3, 0): Q(2),
    })


@cache
def t_algebra() -> Superalgebra:
    # [h,x] = -x, [h,y1] = -y1, [y1,y2] = x
    return Superalgebra.from_half_table(s_basis(), {
        (0, 1, 1): Q(-1),
        (0, 2, 2): Q(-1),
        (2, 3, 1): Q(1),
    })


@cache
def s1_span() -> list[Element]:
    return [V("E11+E33"), V("E21"), V("E23"), V("E13") + V("E31")]


@cache
def s2_span() -> list[Element]:
    return [V("E22+E33"), V("E12"), V("E13"), V("E23") + V("E32")]


@cache
def t1_span() -> list[Element]:
    return [V("E11+E33"), V("E21"), V("E23"), V("E31")]


@cache
def t2_span() -> list[Element]:
    return [V("E22+E33"), V("E12"), V("E13"), V("E32")]


# ---------------------------------------------------------------------------
# restricted cobrackets delta_1, delta_2, delta_s1, delta_s2
# ---------------------------------------------------------------------------

def _s_wedge_table(table: dict[str, list[tuple]], g: Superalgebra) -> Cochain:
    basis = g.basis
    c = Cochain(g, 1, EVEN)
    for lab, terms in table.items():
        total = sum((wedge(basis.vector(a), basis.vector(b)).scale(coeff)
                     for coeff, a, b in terms), Tensor2.zero(basis))
        if not total.is_zero():
            c.set_value((basis.index(lab),), total)
    return c


@cache
def delta_1_table() -> Cochain:
    # delta_1: h -> -y1^y1, x -> x^h - y1^y2, y1 -> 0, y2 -> y2^h + x^y1
    return _s_wedge_table({
        "h": [(-1, "y1", "y1")],
        "x": [(1, "x", "h"), (-1, "y1", "y2")],
        "y2": [(1, "y2", "h"), (1, "x", "y1")],
    }, s_algebra())


@cache
def delta_2_table() -> Cochain:
    return -delta_1_table()


@cache
def delta_s1_table() -> Cochain:
    # delta_s1: x -> x^h - y1^y2, y2 -> y2^h, h and y1 -> 0
    return _s_wedge_table({
        "x": [(1, "x", "h"), (-1, "y1", "y2")],
        "y2": [(1, "y2", "h")],
    }, t_algebra())


@cache
def delta_s2_table() -> Cochain:
    return -delta_s1_table()


def _restricted(bi: Bialgebra, span: list[Element],
                target: Superalgebra) -> Bialgebra:
    """Restrict bi to the span, labelled as the abstract algebra, whose
    bracket it must equal."""
    sub = restrict(bi, span, labels=list(target.basis.labels))
    if (sub.basis != target.basis
            or sub.algebra.constants != target.constants):
        raise FixtureMismatch(
            "restricted basis or bracket differs from the abstract relations")
    return sub


@cache
def s_bialgebra_1() -> Bialgebra:
    return _restricted(bialgebra_f(), s1_span(), s_algebra())


@cache
def s_bialgebra_2() -> Bialgebra:
    return _restricted(bialgebra_f(), s2_span(), s_algebra())


@cache
def t_bialgebra_1() -> Bialgebra:
    return _restricted(bialgebra_s(), t1_span(), t_algebra())


@cache
def t_bialgebra_2() -> Bialgebra:
    return _restricted(bialgebra_s(), t2_span(), t_algebra())


def deltas() -> dict[str, Cochain]:
    """All six named cobrackets, recomputed; the fixtures check the tables."""
    return {
        "delta_f": delta_f(),
        "delta_s": delta_s(),
        "delta_1": s_bialgebra_1().delta,
        "delta_2": s_bialgebra_2().delta,
        "delta_s1": t_bialgebra_1().delta,
        "delta_s2": t_bialgebra_2().delta,
    }


# ---------------------------------------------------------------------------
# the displayed maps
# ---------------------------------------------------------------------------

@cache
def dual_s_basis() -> GradedBasis:
    return dual_basis(s_basis())


@cache
def i1_map() -> LinearMap:
    """h, x, y1, y2 -> E22+E33, E12, E13, E23+E32 (image S2)."""
    return LinearMap(s_basis(), sl21_basis(), s2_span())


@cache
def i2_map() -> LinearMap:
    """h*, x*, y1*, y2* -> -(E11+E33), E21, -E13-E31, E23 (image S1)."""
    return LinearMap(dual_s_basis(), sl21_basis(), [
        -1 * V("E11+E33"),
        V("E21"),
        -1 * V("E13") + -1 * V("E31"),
        V("E23"),
    ])


@cache
def is1_map() -> LinearMap:
    """h, x, y1, y2 -> E22+E33, E12, E13, E32 (image T2)."""
    return LinearMap(s_basis(), sl21_basis(), t2_span())


@cache
def is2_map() -> LinearMap:
    """h*, x*, y1*, y2* -> -(E11+E33), E21, -E31, E23 (image T1)."""
    return LinearMap(dual_s_basis(), sl21_basis(), [
        -1 * V("E11+E33"),
        V("E21"),
        -1 * V("E31"),
        V("E23"),
    ])


def _dual_iso(images: list[tuple[int, str]]) -> LinearMap:
    b = s_basis()
    return LinearMap(dual_s_basis(), b,
                     [Element(b, {b.index(lab): c}) for c, lab in images])


@cache
def dual_iso_1() -> LinearMap:
    """Self-duality of the first restricted structure: h*,x*,y1*,y2* -> h,x,y2,y1."""
    return _dual_iso([(1, "h"), (1, "x"), (1, "y2"), (1, "y1")])


@cache
def dual_iso_2() -> LinearMap:
    """h*, x*, y1*, y2* -> -h, x, y2, -y1."""
    return _dual_iso([(-1, "h"), (1, "x"), (1, "y2"), (-1, "y1")])


@cache
def dual_iso_t1() -> LinearMap:
    return _dual_iso([(1, "h"), (1, "x"), (1, "y2"), (1, "y1")])


@cache
def dual_iso_t2() -> LinearMap:
    return _dual_iso([(-1, "h"), (1, "x"), (1, "y2"), (-1, "y1")])


def negation_map(basis: GradedBasis) -> LinearMap:
    """v -> -v; identifies a bialgebra with the opposite of its mirror."""
    return LinearMap(basis, basis, [basis.vector(i).scale(-1)
                                    for i in range(len(basis))])


# ---------------------------------------------------------------------------
# doubles and their identifications
# ---------------------------------------------------------------------------

@cache
def double_of_s() -> DoubleAlgebra:
    return build_double(s_bialgebra_2())


@cache
def double_of_t() -> DoubleAlgebra:
    return build_double(t_bialgebra_2())


def _combined_identification(d: DoubleAlgebra, primal: LinearMap,
                             dual: LinearMap) -> LinearMap:
    images = list(primal.images) + list(dual.images)
    return LinearMap(d.underlying.basis, primal.target, images)


@cache
def double_s_identification() -> LinearMap:
    return _combined_identification(double_of_s(), i1_map(), i2_map())


@cache
def double_t_identification() -> LinearMap:
    return _combined_identification(double_of_t(), is1_map(), is2_map())


@cache
def manin_triple_s() -> ManinTriple:
    return ManinTriple(sl21(), supertrace_gram(), s2_span(), s1_span())


@cache
def manin_triple_t() -> ManinTriple:
    return ManinTriple(sl21(), supertrace_gram(), t2_span(), t1_span())


# ---------------------------------------------------------------------------
# dual bracket reference tables
# ---------------------------------------------------------------------------

def _dual_table(half: dict[tuple[str, str, str], int]) -> Superalgebra:
    """The algebra on s* with [a, b] = c k for each (a, b, k): c, a <= b."""
    b = dual_s_basis()
    return Superalgebra.from_half_table(
        b, {tuple(map(b.index, key)): c for key, c in half.items()})


@cache
def dual_bracket_table_1() -> Superalgebra:
    """Nonzero brackets on the dual of the first restricted structure."""
    return _dual_table({("h*", "x*", "x*"): -1, ("h*", "y2*", "y2*"): -1,
                        ("x*", "y1*", "y2*"): 1, ("y1*", "y2*", "x*"): 1,
                        ("y1*", "y1*", "h*"): 2})


@cache
def dual_bracket_table_2() -> Superalgebra:
    return _dual_table({("h*", "x*", "x*"): 1, ("h*", "y2*", "y2*"): 1,
                        ("x*", "y1*", "y2*"): -1, ("y1*", "y2*", "x*"): -1,
                        ("y1*", "y1*", "h*"): -2})


@cache
def dual_bracket_table_t1() -> Superalgebra:
    return _dual_table({("h*", "x*", "x*"): -1, ("h*", "y2*", "y2*"): -1,
                        ("y1*", "y2*", "x*"): 1})
