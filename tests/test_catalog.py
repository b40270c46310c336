"""The shipped objects reproduce every reference table."""

from superbialg import catalog as cat
from superbialg import verify
from superbialg.graded import LinearMap, Tensor2
from superbialg.report import VerificationReport
from superbialg.verify import SECTIONS, run_fixtures

B = cat.sl21_basis()
V = cat.V


def test_full_reproduction_suite_passes():
    results = run_fixtures("all")
    failures = [(r.name, r.detail) for r in results if not r.passed]
    assert not failures, failures


def test_every_section_has_fixtures():
    for sec in SECTIONS:
        assert run_fixtures(sec), f"no fixtures for section {sec}"


def test_a_fixture_passes_only_on_true_or_a_passing_report(monkeypatch):
    # a fixture that forgets to return (None), a detail string and a
    # failing report fail and say why; a raising fixture fails with
    # `Type: message`, and False fails without a detail
    failing, passing = VerificationReport("f"), VerificationReport("p")
    failing.add("closure", False, "[x, y] leaves the span")
    passing.add("closure", True)

    def raises():
        raise ValueError("no such table")
    thunks = {"none": lambda: None, "text": lambda: "tables differ",
              "failing": lambda: failing, "raises": raises,
              "false": lambda: False, "true": lambda: True,
              "passing": lambda: passing}
    monkeypatch.setattr(verify, "_build_suite", lambda: [
        (name, "2", "a stand-in", thunk) for name, thunk in thunks.items()])
    results = {r.name: (r.passed, r.detail) for r in run_fixtures("2")}
    assert results == {
        "none": (False, "None"), "text": (False, "tables differ"),
        "failing": (False, "FAIL closure ([x, y] leaves the span)"),
        "raises": (False, "ValueError: no such table"),
        "false": (False, ""), "true": (True, ""), "passing": (True, "")}
    assert run_fixtures("3.1") == []


def test_a_display_fixture_names_both_sides(monkeypatch):
    # one displayed cocommutator row with its sign flipped: that row's
    # fixture fails with the computed and the displayed tensor, and only it
    table = dict(cat.delta_f_table())
    got = table["E32"]
    table["E32"] = -got
    monkeypatch.setattr(cat, "delta_f_table", lambda: table)
    failures = {r.name: r.detail for r in run_fixtures("3.1") if not r.passed}
    assert failures == {"paper.s3_1.delta_f.E32":
                        f"got {got}, displayed {-got}"}


def test_a_cobracket_table_fixture_names_both_cochains(monkeypatch):
    # delta_s2 displayed with the sign of delta_s1: its fixture names the
    # computed and the displayed cochain, value by value, and only it fails
    monkeypatch.setattr(cat, "delta_s2_table", cat.delta_s1_table)
    failures = {r.name: r.detail for r in run_fixtures("3.4") if not r.passed}
    assert failures == {"paper.s3_4.delta_s2": (
        "got {x: h⊗x - x⊗h + y1⊗y2 + y2⊗y1, y2: h⊗y2 - y2⊗h}, "
        "displayed {x: -h⊗x + x⊗h - y1⊗y2 - y2⊗y1, y2: -h⊗y2 + y2⊗h}")}


def test_a_dual_table_fixture_names_both_constant_tables(monkeypatch):
    # the second table on s* displayed for the first: that fixture names
    # the computed and the displayed constants, and only it fails
    got = cat.dual_bracket_table_1().constants
    monkeypatch.setattr(cat, "dual_bracket_table_1", cat.dual_bracket_table_2)
    failures = {r.name: r.detail for r in run_fixtures("3.2") if not r.passed}
    assert failures == {"paper.s3_2.dual_bracket_1": (
        f"got {got}, displayed {cat.dual_bracket_table_2().constants}")}
    assert "(0, 1, 1): Fraction(-1, 1)" in failures[
        "paper.s3_2.dual_bracket_1"]


def test_restrict_fails_on_s1_says_that_restrict_returned(monkeypatch):
    monkeypatch.setattr(verify, "restrict", lambda b, span: b)
    failures = {r.name: r.detail for r in run_fixtures("3.4") if not r.passed}
    assert failures == {"paper.s3_4.restrict_fails_on_s1":
                        "restrict returned; NotClosedUnderCobracket was "
                        "expected"}


def test_the_f_even_fixture_names_the_first_image_off_its_parity(
        monkeypatch):
    f = cat.f_map()
    images = list(f.images)
    images[2] = V("E12") + V("E13")  # E12 -> E12 + E13, mixed
    images[4] = V("E12")             # E13 -> E12, even
    monkeypatch.setattr(cat, "f_map",
                        lambda: LinearMap(f.source, f.target, images))
    details = {r.name: r.detail for r in run_fixtures("2")}
    assert details["paper.s2.f_even"] == "E12 -> E12 + E13 leaves its parity"


def test_subalgebra_and_span_fixtures_name_their_failure(monkeypatch):
    # T2 displayed as (E12, E21), whose bracket leaves their span, and S2
    # displayed as S1, which Im(f) does not span; only these two thunks
    # run, so no cached catalog object sees the stand-ins
    names = {"paper.s3_4.t2_subalgebra", "paper.s3_2.s2_image"}
    suite = [f for f in verify._build_suite() if f[0] in names]
    monkeypatch.setattr(verify, "_build_suite", lambda: suite)
    monkeypatch.setattr(cat, "t2_span", lambda: [V("E12"), V("E21")])
    monkeypatch.setattr(cat, "s2_span", cat.s1_span)
    details = {r.name: (r.passed, r.detail) for r in run_fixtures("all")}
    assert details == {
        "paper.s3_4.t2_subalgebra": (False, "[E12, E21] leaves the span"),
        "paper.s3_2.s2_image": (
            False, "span [0, (E22+E33), E12, 0, E13, -E13, 0, E23 + E32] "
            "!= span [(E11+E33), E21, E23, E13 + E31]")}


def test_delta_f_expanded_entries():
    # hand-expanded values: the wedge of equal odd vectors doubles
    d = cat.delta_f()
    assert d.value(B.index("E11+E33")) == Tensor2(B, B, {(6, 6): -2})
    assert d.value(B.index("E22+E33")) == Tensor2(B, B, {(4, 4): 2})


def test_delta_f_E32_row():
    d = cat.delta_f()
    expected = Tensor2(B, B, {
        (7, 1): -1, (6, 1): -1, (1, 7): 1, (1, 6): 1,
        (2, 4): -1, (4, 2): 1,
    })
    assert d.value(B.index("E32")) == expected


def test_delta_s_rows_vanish_on_diagonal_part():
    d = cat.delta_s()
    assert d.value(B.index("E11+E33")) is None
    assert d.value(B.index("E22+E33")) is None


def test_delta_tables_collection():
    # the six named cobrackets, read off their catalog constructors
    assert cat.delta_f() == cat.bialgebra_f().delta
    assert cat.delta_s() == cat.bialgebra_s().delta
    assert cat.s_bialgebra_1().delta == -cat.s_bialgebra_2().delta
    assert cat.t_bialgebra_1().delta == -cat.t_bialgebra_2().delta


def test_paper_maps_fixture_values():
    maps = {
        "i1": cat.i1_map(), "i2": cat.i2_map(),
        "is1": cat.is1_map(), "is2": cat.is2_map(),
        "dual_iso_1": cat.dual_iso_1(), "dual_iso_2": cat.dual_iso_2(),
        "dual_iso_t1": cat.dual_iso_t1(), "dual_iso_t2": cat.dual_iso_t2(),
    }
    assert maps["i2"].images[0] == -1 * V("E11+E33")       # h*
    assert maps["is1"].images[3] == V("E32")               # y2
    assert maps["dual_iso_2"].images[3] == -1 * cat.s_basis().vector("y1")


def test_parities_of_sl21():
    assert B.parity(B.index("E23")) == 1
    assert B.parity(B.index("E12")) == 0


def test_graded_dimension_bookkeeping():
    # the ambient splits into two graded copies of either subalgebra
    even = sum(1 for p in cat.SL21_PARITIES if p == 0)
    odd = sum(1 for p in cat.SL21_PARITIES if p == 1)
    assert (even, odd) == (4, 4)
    s_even = sum(1 for p in cat.S_PARITIES if p == 0)
    s_odd = sum(1 for p in cat.S_PARITIES if p == 1)
    assert (even, odd) == (2 * s_even, 2 * s_odd)


def test_f_standard_is_projection_onto_T2():
    fs = cat.f_standard()
    from superbialg.graded import span_equal
    assert span_equal(fs.images, cat.t2_span())
    for v in cat.t1_span():
        assert fs(v).is_zero()


def test_s_relations_match_displayed_list():
    g = cat.s_algebra()
    sb = cat.s_basis()
    h, x, y1, y2 = (sb.vector(k) for k in range(4))
    assert g.bracket(h, x) == -1 * x
    assert g.bracket(h, y1) == -1 * y1
    assert g.bracket(x, y2) == y1
    assert g.bracket(y1, y2) == x
    assert g.bracket(y2, y2) == 2 * h
    assert g.bracket(h, y2).is_zero()
    assert g.bracket(x, y1).is_zero()


def test_t_relations_match_displayed_list():
    g = cat.t_algebra()
    sb = cat.s_basis()
    h, x, y1, y2 = (sb.vector(k) for k in range(4))
    assert g.bracket(h, x) == -1 * x
    assert g.bracket(h, y1) == -1 * y1
    assert g.bracket(y1, y2) == x
    assert g.bracket(y2, y2).is_zero()
    assert g.bracket(x, y2).is_zero()
