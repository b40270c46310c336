"""Elements, tensors, Koszul-signed operations, exact linear algebra."""

from fractions import Fraction as Q

import pytest

from superbialg import catalog as cat
from superbialg.algebra import Superalgebra
from superbialg.graded import (
    BasisMismatch, Element, GradedBasis, LinearMap, Tensor, Tensor2,
    invert_matrix, is_super_skew, koszul, rref, span_equal, super_swap,
    tensor, wedge,
)
from oracles import alt_s, dense, matmul, solve_exact, sparse

B = cat.sl21_basis()
V = cat.V
IDENTITY = LinearMap(B, B, B.vectors())


def f_minus_one_images():
    return [im - v for im, v in zip(cat.f_map().images, B.vectors())]


def T(entries):
    return Tensor2(B, B, entries)


# -- basis and element basics -------------------------------------------------

def test_basis_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        GradedBasis(["a", "a"], [0, 0])


def test_basis_rejects_empty():
    with pytest.raises(ValueError):
        GradedBasis([], [])


def test_element_strips_zeros():
    e = Element(B, {0: Q(0), 1: Q(2)})
    assert e.entries == {1: Q(2)}


def test_element_parity():
    assert V("E12").parity() == 0
    assert V("E13").parity() == 1
    assert (V("E12") + V("E13")).parity() is None
    assert not (V("E12") + V("E13")).is_homogeneous()
    assert B.zero().is_homogeneous()


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Element(B, {0: 0.5})


# -- one tensor type ----------------------------------------------------------

def test_the_three_ranks_are_one_type():
    t = Tensor(B, {(0, 1): Q(2), (4, 5): 0}, 2)
    assert t == T({(0, 1): 2}) and T({(0, 1): 2}) == t
    assert V("E12") == Tensor(B, {2: 1}, 1)
    assert B.zero() != Tensor2.zero(B)  # equal entries, different rank
    assert (t.rank, V("E12").rank, Tensor(B, {}, 3).rank) == (2, 1, 3)


def test_arithmetic_keeps_the_subclass():
    x = Tensor(B, {(0, 4, 5): 1}, 3)
    for value in (x + x, x - x, -x, x.scale(2), 2 * x, alt_s(x)):
        assert type(value) is Tensor
    for value in (T({(0, 1): 1}) + T({}), super_swap(T({(4, 5): 1}))):
        assert type(value) is Tensor2
    assert type(V("E12") - V("E13")) is Element


def test_tensor_parity_sums_the_legs():
    assert Tensor(B, {(4, 5, 0): 1}, 3).parity() == 0
    assert Tensor(B, {(4, 0, 1): 1}, 3).parity() == 1
    assert Tensor(B, {(4, 0, 1): 1, (0, 1, 2): 1}, 3).parity() is None
    assert not Tensor(B, {(4, 0, 1): 1, (0, 1, 2): 1}, 3).is_homogeneous()


def test_rank_three_renders_and_indexes():
    x = Tensor(B, {(4, 0, 6): Q(-2, 3), (2, 3, 1): 1}, 3)
    assert str(x) == "E12⊗E21⊗(E22+E33) - 2/3*E13⊗(E11+E33)⊗E23"
    assert x[(4, 0, 6)] == Q(-2, 3) and x[(0, 0, 0)] == 0


@pytest.mark.parametrize("make", [
    lambda: Element(B, {8: 1}),
    lambda: Element(B, {(1,): 1}),
    lambda: T({(0, 8): 1}),
    lambda: T({(0, -1): 1}),
    lambda: T({(0, 1, 2): 1}),
    lambda: T({3: 1}),
    lambda: Tensor(B, {(0, 1, 9): 1}, 3),
    lambda: Tensor(B, {(0, 1, 2, 3): 1}, 3),
    lambda: Tensor(B, {(0, 1): 1}, 3),
    lambda: Element(B, {1.0: 1}),
    lambda: Element(B, {True: 1}),
    lambda: T({(0, 1.0): 1}),
    lambda: T({(False, 1): 1}),
    lambda: Tensor(B, {(0, 1, 2.0): 1}, 3),
    lambda: Superalgebra(B, {(1.0, 0, 1): 1}),
    lambda: Superalgebra(B, {(True, 0, 1): 1}),
], ids=["element range", "element arity", "t2 range", "t2 negative",
        "t2 arity", "t2 int key", "t3 range", "t3 arity", "tensor arity",
        "element float", "element bool", "t2 float", "t2 bool",
        "t3 float", "algebra float", "algebra bool"])
def test_constructors_check_every_key(make):
    with pytest.raises(IndexError):
        make()


def test_legs_must_share_one_basis():
    other = GradedBasis(["a"], [0])
    with pytest.raises(BasisMismatch):
        Tensor2(B, other, {})
    with pytest.raises(BasisMismatch):
        V("E12") + T({(0, 1): 1})  # rank 1 plus rank 2


def test_leg_views_are_read_only():
    t, e = T({(0, 1): 1}), V("E12")
    assert t.left is B and t.right is B
    for obj, name in ((t, "left"), (t, "right")):
        with pytest.raises(AttributeError):
            setattr(obj, name, B)


def test_koszul_and_super_skew():
    assert [koszul(p, q) for p, q in ((0, 0), (0, 1), (1, 1), (1, 2))] == \
        [1, 1, -1, 1]
    from superbialg.algebra import koszul as from_algebra
    assert from_algebra is koszul
    assert is_super_skew(wedge(V("E13"), V("E23")))
    assert not is_super_skew(tensor(V("E13"), V("E23")))


# -- tensor -------------------------------------------------------------------

def test_tensor_on_basis_vectors():
    assert tensor(V("E23"), V("E23")) == T({(6, 6): 1})


def test_tensor_with_zero():
    assert tensor(B.zero(), V("E12")).is_zero()


def test_tensor_bilinear():
    assert tensor(2 * V("E12"), 3 * V("E21")) == T({(2, 3): 6})


def test_tensor_basis_mismatch():
    other = GradedBasis(["a"], [0])
    with pytest.raises(BasisMismatch):
        tensor(V("E12"), other.vector(0))


# -- wedge --------------------------------------------------------------------

def test_wedge_equal_odd_vectors_doubles():
    assert wedge(V("E23"), V("E23")) == T({(6, 6): 2})


def test_wedge_even_self_vanishes():
    assert wedge(V("E12"), V("E12")).is_zero()


def test_wedge_even_even():
    a, b = V("E21"), V("E11+E33")
    assert wedge(a, b) == tensor(a, b) - tensor(b, a)


def test_wedge_mixed_input_decomposes():
    a = V("E12") + V("E13")  # even + odd
    b = V("E23")
    expected = (tensor(a, b) - tensor(b, V("E12"))
                + tensor(b, V("E13")))
    assert wedge(a, b) == expected


# -- super swap ---------------------------------------------------------------

def test_super_swap_odd_pair():
    assert super_swap(T({(4, 5): 1})) == T({(5, 4): -1})


def test_super_swap_even_pair():
    assert super_swap(T({(2, 3): 1})) == T({(3, 2): 1})


def test_super_swap_involution():
    t = T({(0, 1): Q(3, 7), (4, 6): -2, (5, 2): 1, (7, 7): Q(1, 2)})
    assert super_swap(super_swap(t)) == t


def test_super_swap_kills_wedge():
    w = wedge(V("E13") + V("E31"), V("E11+E33"))
    assert super_swap(w) == w.scale(-1)


# -- alt ----------------------------------------------------------------------

def test_alt_all_even_is_plain_cycle():
    t = Tensor(B, {(0, 1, 2): 1}, 3)
    assert alt_s(t) == Tensor(B, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1},
                              3)


def test_alt_zero():
    assert alt_s(Tensor(B, {}, 3)).is_zero()


def test_alt_invariant_under_its_own_shift():
    # the signed cyclic shift fixes the symmetrized tensor
    t = Tensor(B, {(4, 1, 6): Q(2), (0, 5, 7): -1, (4, 4, 4): 1}, 3)
    s = alt_s(t)
    shifted = Tensor(B, {}, 3)
    for (i, j, k), c in s.entries.items():
        sign = (-1) ** (B.parity(i) * (B.parity(j) + B.parity(k)))
        shifted = shifted + Tensor(B, {(j, k, i): sign * c}, 3)
    assert shifted == s


def test_alt_of_cobracket_square_vanishes():
    # coJacobi for the exotic cobracket, at the E21 line: delta is even, so
    # (delta (x) Id)(u (x) v) = delta(u) (x) v with no extra sign
    d = cat.delta_f()
    entries = {}
    for (u, v), c in d.value(B.index("E21")).entries.items():
        du = d.value(u)
        if du is not None:
            for (i, j), x in du.entries.items():
                entries[(i, j, v)] = entries.get((i, j, v), 0) + c * x
    assert alt_s(Tensor(B, entries, 3)).is_zero()


# -- endomorphisms ------------------------------------------------------------

def test_apply_f_to_E31():
    assert cat.f_map()(V("E31")) == -1 * V("E13")


def test_apply_identity():
    x = V("E12") + 5 * V("E32")
    assert IDENTITY(x) == x


def test_apply_f_to_E32():
    assert cat.f_map()(V("E32")) == V("E23") + V("E32")


def test_image_basis_of_f_minus_one_spans_S1():
    assert span_equal(f_minus_one_images(), cat.s1_span())
    assert not span_equal(cat.f_map().images, cat.s1_span())


def test_image_basis_of_f_spans_S2():
    # the zero images of f reduce to no row
    assert span_equal(cat.f_map().images, cat.s2_span())
    assert not span_equal(f_minus_one_images(), cat.s2_span())


def test_span_equal_refuses_families_over_different_bases():
    # same size, other labels; and two bases of different sizes
    with pytest.raises(BasisMismatch):
        span_equal(cat.s_basis().vectors(), cat.dual_s_basis().vectors())
    with pytest.raises(BasisMismatch):
        span_equal(cat.s1_span(), cat.s_basis().vectors())
    with pytest.raises(BasisMismatch):
        span_equal([V("E12"), cat.s_basis().vector(0)], [V("E12")])


def test_is_bijective_is_false_on_the_singular_f():
    # f is square (8 x 8) but S2 = Im(f) is a proper subspace
    assert not cat.f_map().is_bijective()
    assert LinearMap(B, B, f_minus_one_images()).is_bijective() is False
    assert IDENTITY.is_bijective()


# -- exact kernels ------------------------------------------------------------

def test_rref_idempotent():
    rows = [[Q(2), Q(4), Q(1)], [Q(1), Q(2), Q(3)], [Q(0), Q(1), Q(0)]]
    red, piv = rref(sparse(rows), range(3))
    again, piv2 = rref(red, range(3))
    assert red == again and piv == piv2


def test_solve_exact_consistent():
    cols = [[Q(1), Q(0)], [Q(1), Q(1)]]
    assert solve_exact(cols, [Q(3), Q(2)]) == [Q(1), Q(2)]


def test_solve_exact_inconsistent():
    cols = [[Q(1), Q(0)]]
    assert solve_exact(cols, [Q(0), Q(1)]) is None


def test_invert_matrix_roundtrip():
    m = [[Q(2), Q(1)], [Q(7), Q(4)]]
    inv = dense(invert_matrix(sparse(m)), 2)
    assert matmul(m, inv) == [[Q(1), Q(0)], [Q(0), Q(1)]]


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert_matrix(sparse([[Q(1), Q(2)], [Q(2), Q(4)]]))
