"""The factored-span kernel against the reference solver.

`graded.factor_span` factors a span once and `span_coordinates` reads each
coordinate vector off that factorization; `tests/oracles.py` solves every
target afresh with `solve_exact`.  Both must agree on membership and on the
coordinates, in the span and in span (x) span, and `restrict` and
`is_subalgebra` must agree with their reference versions on any span,
including their exceptions and messages.
"""

from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superbialg import algebra, bialgebra, graded
from superbialg import catalog as cat
from superbialg.graded import factor_span, rank, span_coordinates, square_span
from oracles import is_subalgebra_reference, restrict_reference, solve_exact

# large primes and their ratios, as the rescaled inputs of the benchmark use
SCALES = [Q(1), Q(-1), Q(1_000_003), Q(998_244_353, 1_000_000_007),
          Q(-(2**61 - 1), 65_537)]

scalars = st.integers(-3, 3).map(Q)
scales = st.sampled_from(SCALES)


@st.composite
def families(draw):
    """(width, vectors as dicts, dense rows) of up to 4 rescaled vectors."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, min(n, 4)))
    rows = [[draw(scalars) * draw(scales) for _ in range(n)] for _ in range(m)]
    return n, [{k: x for k, x in enumerate(r) if x} for r in rows], rows


def reference(cols, target):
    """Nonzero coordinates from `solve_exact`, or None."""
    x = solve_exact(cols, target)
    return None if x is None else {a: c for a, c in enumerate(x) if c}


@given(fam=families(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_rank_1_coordinates_match_the_reference_solver(fam, data):
    n, vecs, rows = fam
    span = factor_span(vecs, range(n))
    assert (span is None) == (rank(rows) < len(rows))
    assume(span is not None)
    coeffs = [data.draw(scalars) * data.draw(scales) for _ in vecs]
    target = [sum((c * r[k] for c, r in zip(coeffs, rows)), Q(0))
              for k in range(n)]
    if data.draw(st.booleans()):  # most of these leave the span
        k = data.draw(st.integers(0, n - 1))
        target[k] += data.draw(scales)
    got = span_coordinates(span, {k: x for k, x in enumerate(target) if x})
    assert got == reference(rows, target)
    assert got is None or list(got) == sorted(got)


@given(fam=families(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_rank_2_coordinates_match_the_reference_solver(fam, data):
    n, vecs, rows = fam
    span = factor_span(vecs, range(n))
    assume(span is not None and vecs)
    pairs = list(product(range(len(vecs)), repeat=2))
    cols = [[rows[a][i] * rows[b][j] for i in range(n) for j in range(n)]
            for a, b in pairs]
    x = {p: data.draw(scalars) * data.draw(scales) for p in pairs}
    target = [sum((x[p] * col[t] for p, col in zip(pairs, cols)), Q(0))
              for t in range(n * n)]
    if data.draw(st.booleans()):
        t = data.draw(st.integers(0, n * n - 1))
        target[t] += data.draw(scales)
    entries = {divmod(t, n): c for t, c in enumerate(target) if c}
    got = span_coordinates(square_span(span), entries)
    want = reference(cols, target)
    assert got == (None if want is None
                   else {pairs[a]: c for a, c in want.items()})
    assert got is None or list(got) == sorted(got)


# -- restrict and is_subalgebra on perturbed spans ---------------------------

SPANS = {"s1": cat.s1_span, "s2": cat.s2_span, "t1": cat.t1_span,
         "t2": cat.t2_span, "all": lambda: cat.sl21_basis().vectors()}
BIALGEBRAS = {"f": cat.bialgebra_f, "s": cat.bialgebra_s}


@st.composite
def perturbed_spans(draw):
    """A catalog span, rescaled, then perhaps broken: a vector dropped,
    zeroed, duplicated or pushed along a basis vector, or the span emptied."""
    vecs = [v.scale(draw(scales)) for v in SPANS[draw(st.sampled_from(
        sorted(SPANS)))]()]
    how = draw(st.sampled_from(["keep", "drop", "zero", "duplicate", "push",
                                "empty"]))
    i = draw(st.integers(0, len(vecs) - 1))
    if how == "drop":
        del vecs[i]
    elif how == "zero":
        vecs[i] = vecs[i].scale(0)
    elif how == "duplicate":
        vecs.append(vecs[i].scale(draw(scales)))
    elif how == "push":
        k = draw(st.integers(0, 7))
        vecs[i] = vecs[i] + cat.sl21_basis().vector(k).scale(draw(scales))
    elif how == "empty":
        vecs = []
    return vecs


def outcome(fn, *args):
    """A comparable summary: the restricted bialgebra's basis, constants in
    insertion order and delta values, the boolean, or the exception."""
    try:
        out = fn(*args)
    except Exception as e:
        return type(e), str(e)
    if isinstance(out, bialgebra.Bialgebra):
        return (out.basis, list(out.algebra.constants.items()),
                sorted((k, list(v.entries.items()))
                       for k, v in out.delta.values.items()))
    return out


@given(which=st.sampled_from(sorted(BIALGEBRAS)), sub=perturbed_spans())
@settings(max_examples=150, deadline=None)
def test_restrict_matches_the_reference(which, sub):
    b = BIALGEBRAS[which]()
    assert outcome(bialgebra.restrict, b, sub) == outcome(restrict_reference,
                                                          b, sub)


@given(sub=perturbed_spans())
@settings(max_examples=150, deadline=None)
def test_is_subalgebra_matches_the_reference(sub):
    g = cat.sl21()
    assert outcome(algebra.is_subalgebra, g, sub) == outcome(
        is_subalgebra_reference, g, sub)


def test_empty_spans_keep_their_answers():
    with pytest.raises(ValueError, match="basis must contain at least one"):
        bialgebra.restrict(cat.bialgebra_f(), [])
    assert algebra.is_subalgebra(cat.sl21(), [])


@pytest.mark.parametrize("call", [
    lambda: bialgebra.restrict(cat.bialgebra_f(), cat.s1_span()),
    lambda: algebra.is_subalgebra(cat.sl21(), cat.t1_span()),
    lambda: algebra.from_matrices(cat.sl21_realization()),
], ids=["restrict", "is_subalgebra", "from_matrices"])
def test_each_caller_factors_its_span_once(call, monkeypatch):
    cat.sl21(), cat.bialgebra_f()  # build the inputs outside the count
    calls = {"rref": 0, "invert_matrix": 0}
    for name in calls:
        def counted(*args, real=getattr(graded, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(graded, name, counted)
    call()
    # one rref of the tagged vectors gives the pivots and P^{-1} at once
    assert calls == {"rref": 1, "invert_matrix": 0}
