"""End-to-end command line behavior and exit codes."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superbialg import catalog as cat
from superbialg import double, graded
from superbialg import serialize as ser
from superbialg.algebra import Superalgebra
from superbialg.bialgebra import Bialgebra
from superbialg.cli import main


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
        return str(p)

    write("sl21.json", ser.superalgebra_to_json(cat.sl21()))
    write("r_f.json", ser.tensor_to_json(cat.r_f()))
    write("omega.json", ser.tensor_to_json(cat.omega()))
    write("s_delta2.json", ser.bialgebra_to_json(cat.s_bialgebra_2()))
    write("manin_s.json", ser.manin_to_json(cat.manin_triple_s()))
    write("sl21_delta_s.json", ser.bialgebra_to_json(cat.bialgebra_s()))
    write("s1_span.json",
          [ser.tensor_to_json(v) for v in cat.s1_span()])
    write("t1_span.json",
          [ser.tensor_to_json(v) for v in cat.t1_span()])
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes(files, capsys, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    code, out, _ = run(capsys, "validate", files["sl21.json"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_validate_broken_algebra_exits_1(files, capsys, tmp_path,
                                         monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    doc = ser.superalgebra_to_json(cat.s_algebra())
    # redirect [y2, y2] from 2h to 2x: breaks Jacobi
    for ent in doc["brackets"]:
        if ent["i"] == 3 and ent["j"] == 3:
            ent["terms"] = [{"k": 1, "num": "2", "den": "1"}]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    assert "FAIL" in out and "Jacobi" in out


def test_validate_missing_file_exits_2(files, capsys):
    code, _, err = run(capsys, "validate", files["dir"] + "/nosuchfile.json")
    assert code == 2
    assert "no such file" in err


def test_validate_malformed_json_exits_2(files, capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"basis": [,]}')
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "line" in err and "column" in err


def test_cocommutator_text_table(files, capsys, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    code, out, _ = run(capsys, "cocommutator", files["sl21.json"],
                       "--r", files["r_f.json"])
    assert code == 0
    assert "d(E21) = " in out
    assert "d(E13) = 0" in out


def test_cocommutator_omega_gives_zero_table(files, capsys):
    code, out, _ = run(capsys, "cocommutator", files["sl21.json"],
                       "--r", files["omega.json"])
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.startswith("d(")]
    assert len(lines) == 8
    assert all(l.endswith("= 0") for l in lines)


def test_cocommutator_json_roundtrips(files, capsys):
    code, out, _ = run(capsys, "cocommutator", files["sl21.json"],
                       "--r", files["r_f.json"], "--format", "json")
    assert code == 0
    doc = json.loads(out)
    back = ser.cochain_from_json(doc, cat.sl21())
    assert back == cat.delta_f()


def test_cocommutator_basis_mismatch_exits_2(files, capsys, tmp_path):
    doc = ser.tensor_to_json(cat.r_f())
    doc["basis"][0] = "other"
    p = tmp_path / "wrongbasis.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "cocommutator", files["sl21.json"],
                       "--r", str(p))
    assert code == 2


def test_out_of_range_tensor_index_exits_2(files, capsys, tmp_path):
    doc = ser.tensor_to_json(cat.r_f())
    doc["entries"].append({"idx": [0, 99], "num": "1", "den": "1"})
    p = tmp_path / "badindex.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "cocommutator", files["sl21.json"],
                       "--r", str(p))
    assert code == 2
    assert err.startswith("error:") and "[0, 99]" in err
    assert "Traceback" not in err


def test_zero_denominator_exits_2(files, capsys, tmp_path):
    doc = ser.superalgebra_to_json(cat.sl21())
    doc["brackets"][0]["terms"][0]["den"] = "0"
    p = tmp_path / "zeroden.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert err.startswith("error:") and "bad scalar" in err
    assert "Traceback" not in err


def _first_term(doc):
    return doc["brackets"][0]["terms"][0]


# Each input is unusable; every one must exit 2 with an `error:` line.
SCHEMA_CASES = {
    "k negative": ("sl21.json", lambda d: _first_term(d).update(k=-1)),
    "k a string": ("sl21.json", lambda d: _first_term(d).update(k="x")),
    "k fractional": ("sl21.json", lambda d: _first_term(d).update(k=1.5)),
    "k boolean": ("sl21.json", lambda d: _first_term(d).update(k=True)),
    "j fractional": ("sl21.json", lambda d: d["brackets"][0].update(
        j=d["brackets"][0]["j"] + 0.5)),
    "idx fractional": ("r_f.json",
                       lambda d: d["entries"][0].update(idx=[0, 1.5])),
    "args too long": ("s_delta2.json",
                      lambda d: d["delta"]["values"][0].update(args=[0, 1])),
    "args out of range": ("s_delta2.json",
                          lambda d: d["delta"]["values"][0].update(args=[99])),
    "args repeat an even index": ("s_delta2.json", lambda d: (
        d["delta"].update(degree=2),
        d["delta"]["values"][0].update(args=[0, 0]))),
    "value not an object": ("s_delta2.json",
                            lambda d: d["delta"]["values"][0].update(value=5)),
    "values not a list": ("s_delta2.json",
                          lambda d: d["delta"].update(values=5)),
    "values entry not an object": ("s_delta2.json",
                                   lambda d: d["delta"].update(values=[5])),
    "entries not a list": ("r_f.json", lambda d: d.update(entries=5)),
    "entry not an object": ("r_f.json", lambda d: d.update(entries=[5])),
    "tensor basis not a list": ("r_f.json", lambda d: d.update(basis=5)),
    "delta value basis not a list": (
        "s_delta2.json", lambda d: d["delta"]["values"][0]["value"].update(
            basis=None)),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_non_integral_or_out_of_range_index_exits_2(case, files, capsys,
                                                    tmp_path):
    name, mutate = SCHEMA_CASES[case]
    doc = json.loads(Path(files[name]).read_text())
    mutate(doc)
    p = tmp_path / "mutated.json"
    p.write_text(json.dumps(doc))
    argv = {"sl21.json": ["validate", str(p)],
            "r_f.json": ["cocommutator", files["sl21.json"], "--r", str(p)],
            "s_delta2.json": ["dual", str(p)]}[name]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_missing_brackets_key_exits_2(files, capsys, tmp_path):
    doc = ser.superalgebra_to_json(cat.sl21())
    del doc["brackets"]
    p = tmp_path / "nobrackets.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert err.startswith("error:") and "brackets" in err


def test_empty_brackets_is_the_abelian_algebra(files, capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    doc = ser.superalgebra_to_json(cat.sl21())
    doc["brackets"] = []
    p = tmp_path / "abelian.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 0
    assert "FAIL" not in out
    assert ser.superalgebra_from_json(doc).constants == {}


def _set_parity_of_first_odd(d, value):
    parities = d["algebra"]["parities"]
    parities[parities.index(1)] = value


# Integers that `int()` would have truncated or accepted: each must be a
# schema error on the `double` path, not a silently changed input.
INTEGER_CASES = {
    "num a float": lambda d: d["algebra"]["brackets"][0]["terms"][0].update(
        num=1.5),
    "den a bool": lambda d: d["algebra"]["brackets"][0]["terms"][0].update(
        den=True),
    "basis parity a float": lambda d: _set_parity_of_first_odd(d, 1.0),
    "cochain degree a float": lambda d: d["delta"].update(degree=1.5),
    "cochain parity 2": lambda d: d["delta"].update(parity=2),
}


@pytest.mark.parametrize("case", sorted(INTEGER_CASES))
def test_non_integer_count_or_scalar_exits_2(case, capsys, tmp_path):
    doc = ser.bialgebra_to_json(cat.bialgebra_f())
    INTEGER_CASES[case](doc)
    p = tmp_path / "mutated.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "double", str(p))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("swapped", ["one value", "every value"])
def test_element_valued_delta_exits_2(swapped, fmt, capsys, tmp_path):
    # a cobracket lives in g (x) g: a value written as an element of g is
    # a schema error, also when every value is written that way
    doc = ser.bialgebra_to_json(cat.bialgebra_f())
    values = doc["delta"]["values"]
    for ent in values[1:2] if swapped == "one value" else values:
        ent["value"] = ser.tensor_to_json(cat.V("E12"))
    p = tmp_path / "element_delta.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "double", str(p), "--format", fmt)
    assert code == 2
    assert err.startswith("error:") and "2 slots" in err
    assert "Traceback" not in err
    assert out == ""


def test_double_writes_output(files, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    out_path = str(tmp_path / "double.json")
    code, out, _ = run(capsys, "double", files["s_delta2.json"],
                       "--out", out_path)
    assert code == 0
    assert "double dimension: 8" in out
    doc = json.loads(Path(out_path).read_text())
    back = ser.double_from_json(doc)
    assert back.underlying.dim() == 8


def test_double_json_stdout_is_the_document_alone(files, capsys):
    code, out, _ = run(capsys, "double", files["s_delta2.json"],
                       "--format", "json")
    assert code == 0
    back = ser.double_from_json(json.loads(out))
    assert back.underlying.dim() == 8


def _invalid_bialgebra(tmp_path) -> str:
    doc = ser.bialgebra_to_json(cat.s_bialgebra_2())
    # negate a single delta row: skewness survives but the cocycle dies
    for ent in doc["delta"]["values"]:
        if ent["args"] == [1]:
            for e in ent["value"]["entries"]:
                e["num"] = str(-int(e["num"]))
    p = tmp_path / "invalid.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_double_invalid_bialgebra_exits_1(files, capsys, tmp_path,
                                          monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    code, out, _ = run(capsys, "double", _invalid_bialgebra(tmp_path))
    assert code == 1
    assert "FAIL" in out


def test_double_json_failure_prints_json(files, capsys, tmp_path,
                                         monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    path = _invalid_bialgebra(tmp_path)
    code, out, _ = run(capsys, "double", path, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    _, text, _ = run(capsys, "double", path)
    assert doc == {"passed": False, "detail": text.strip()[len("FAIL  "):]}
    assert doc["detail"].startswith("FAIL pairwise super cocycle condition")


def test_double_validates_the_double_once(files, capsys, monkeypatch):
    # the document is loaded unchecked and `build_double` verifies the
    # 4-dim bialgebra once; nothing is validated on the 8-dim double
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    calls = []
    for cls, name in ((Bialgebra, "verify"), (Superalgebra, "validate")):
        def counted(self, real=getattr(cls, name), name=name):
            calls.append((name, len(self.basis)))
            return real(self)
        monkeypatch.setattr(cls, name, counted)
    code, out, _ = run(capsys, "double", files["s_delta2.json"])
    assert code == 0
    assert calls == [("verify", 4), ("validate", 4)]
    assert out.splitlines() == [
        "double dimension: 8",
        "PASS  grading consistency",
        "PASS  super antisymmetry",
        "PASS  even self-brackets vanish",
        "PASS  super Jacobi",
        "PASS  delta is even",
        "PASS  delta values are super-skew",
        "PASS  pairwise super cocycle condition",
        "PASS  Alt(delta (x) Id) delta = 0",
    ]


def test_verify_paper_counts_each_verification(capsys, monkeypatch):
    # from cold caches: the catalog only builds, so the two sl(2,1)
    # bialgebras verify once each and each double verifies its bialgebra
    # once (2 + 2 verify), while `restrict` and `opposite` verify nothing
    # again; every verify validates its algebra, the s and t axiom
    # fixtures and the two double fixtures validate theirs, each of the
    # four dual brackets is derived and validated once per run (4 + 2 + 2
    # + 4 validate), the two canonical_r fixtures check its r, every span
    # is factored once and casimir inverts its Gram matrix without a
    # separate rank test
    calls = {"verify": 0, "validate": 0, "check_canonical_r": 0, "rref": 0}
    for cls, name in ((Bialgebra, "verify"), (Superalgebra, "validate")):
        def counted(self, real=getattr(cls, name), name=name):
            calls[name] += 1
            return real(self)
        monkeypatch.setattr(cls, name, counted)
    modules = [m for n, m in sys.modules.items() if n.startswith("superbialg")]
    for name in ("check_canonical_r", "rref"):
        def counted(*args, real=getattr(graded if name == "rref" else double,
                                        name), name=name):
            calls[name] += 1
            return real(*args)
        for m in modules:
            if hasattr(m, name):
                monkeypatch.setattr(m, name, counted)
    for f in vars(cat).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    code, out, _ = run(capsys, "verify", "paper")
    assert code == 0
    assert out.endswith("70/70 fixtures pass\n")
    assert calls == {"verify": 4, "validate": 12, "check_canonical_r": 2,
                     "rref": 37}
    # the reference solver lives in tests/oracles.py only
    assert not any(hasattr(m, "solve_exact") for m in modules)


def test_cold_verify_paper_builds_few_fractions(capsys, monkeypatch):
    # the kernels add ints and build Fractions only for results and their
    # rendering; the bounds are the counts of a cold `verify paper` under
    # Python 3.10 and 3.11, and under 3.12 and later, which builds
    # arithmetic results without calling `Fraction.__new__`
    made = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)
    for f in vars(cat).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    code, out, _ = run(capsys, "verify", "paper")
    monkeypatch.undo()
    assert code == 0
    assert out.endswith("70/70 fixtures pass\n")
    assert 0 < made <= (850 if sys.version_info < (3, 12) else 620)


def test_dual_prints_bracket_table(files, capsys, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    code, out, _ = run(capsys, "dual", files["s_delta2.json"])
    assert code == 0
    assert "[y1*, y1*] = -2*h*" in out


def test_restrict_not_closed_exits_1(files, capsys, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    code, out, _ = run(capsys, "restrict", files["sl21_delta_s.json"],
                       "--span", files["s1_span.json"])
    assert code == 1
    assert "not closed" in out


def test_restrict_success_roundtrips(files, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    span = [ser.tensor_to_json(v) for v in cat.t1_span()]
    p = tmp_path / "t1_span.json"
    p.write_text(json.dumps(span))
    code, out, _ = run(capsys, "restrict", files["sl21_delta_s.json"],
                       "--span", str(p), "--labels", "h,x,y1,y2",
                       "--format", "json")
    assert code == 0
    back = ser.bialgebra_from_json(json.loads(out))
    assert back.delta == cat.t_bialgebra_1().delta


def test_manin_passes(files, capsys, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    code, out, _ = run(capsys, "manin", files["manin_s.json"])
    assert code == 0
    assert "direct sum" in out


# each subcommand, passing and failing, with its exit code
OUT_CASES = {
    "validate": (0, lambda f, tmp: ["validate", f["sl21.json"]]),
    "cocommutator": (0, lambda f, tmp: ["cocommutator", f["sl21.json"],
                                        "--r", f["r_f.json"]]),
    "double": (0, lambda f, tmp: ["double", f["s_delta2.json"]]),
    "double invalid": (1, lambda f, tmp: ["double", _invalid_bialgebra(tmp)]),
    "dual": (0, lambda f, tmp: ["dual", f["s_delta2.json"]]),
    "restrict": (0, lambda f, tmp: ["restrict", f["sl21_delta_s.json"],
                                    "--span", f["t1_span.json"]]),
    "restrict not closed": (1, lambda f, tmp: [
        "restrict", f["sl21_delta_s.json"], "--span", f["s1_span.json"]]),
    "manin": (0, lambda f, tmp: ["manin", f["manin_s.json"]]),
    "verify": (0, lambda f, tmp: ["verify", "paper", "--section", "3.1"]),
}


@pytest.mark.parametrize("case", sorted(OUT_CASES))
def test_out_gets_the_json_document(case, files, capsys, tmp_path,
                                    monkeypatch):
    # one rule for every subcommand: --out gets what --format json prints,
    # in json mode instead of stdout, in text mode after the text
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    want, argv = OUT_CASES[case]
    argv = argv(files, tmp_path)
    code, doc, _ = run(capsys, *argv, "--format", "json")
    assert code == want
    json.loads(doc)
    code, text, _ = run(capsys, *argv)
    assert code == want
    out = tmp_path / "out.json"
    code, printed, _ = run(capsys, *argv, "--out", str(out))
    assert code == want
    assert printed == text + f"wrote {out}\n"
    assert out.read_text() == doc
    out.unlink()
    code, printed, _ = run(capsys, *argv, "--format", "json", "--out", str(out))
    assert code == want
    assert printed == "" and out.read_text() == doc


# the argument vector of each subcommand with the document `p` in one slot
DOCUMENT_SLOTS = {
    "validate": lambda f, p: ["validate", p],
    "cocommutator algebra": lambda f, p: ["cocommutator", p,
                                          "--r", f["r_f.json"]],
    "cocommutator --r": lambda f, p: ["cocommutator", f["sl21.json"],
                                      "--r", p],
    "dual": lambda f, p: ["dual", p],
    "double": lambda f, p: ["double", p],
    "restrict": lambda f, p: ["restrict", p, "--span", f["s1_span.json"]],
    "manin": lambda f, p: ["manin", p],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("slot", sorted(DOCUMENT_SLOTS))
def test_document_that_is_not_an_object_exits_2(slot, fmt, files, capsys,
                                                 tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[]")
    code, out, err = run(capsys, *DOCUMENT_SLOTS[slot](files, str(p)),
                         "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("gram", ["missing row", "short row", "not a list"])
def test_malformed_gram_exits_2(gram, files, capsys, tmp_path):
    doc = json.loads(Path(files["manin_s.json"]).read_text())
    if gram == "missing row":
        del doc["gram"][-1]
    elif gram == "short row":
        del doc["gram"][3][0]
    else:
        doc["gram"] = 5
    p = tmp_path / "triple.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "manin", str(p))
    assert code == 2
    assert err == ("error: gram must be 8 lists of 8 scalars, one row per "
                   "basis vector\n")


def test_inhomogeneous_r_exits_2(files, capsys, tmp_path):
    doc = ser.tensor_to_json(cat.r_f())
    doc["entries"][0]["idx"] = [0, 4]  # an even-odd entry in an even r
    p = tmp_path / "r.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cocommutator", files["sl21.json"],
                         "--r", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: 0-cochain must be parity-homogeneous")


@pytest.mark.parametrize("raw,why", [
    (b"\x80", "unreadable JSON: 'utf-8' codec can't decode byte 0x80"),
    # past the int digit limit of Python >= 3.10.7, a schema error before
    (b"[" + b"1" * 5000 + b"]", ""),
], ids=["not utf-8", "integer literal too long"])
def test_unreadable_document_exits_2(raw, why, capsys, tmp_path):
    p = tmp_path / "doc.json"
    p.write_bytes(raw)
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and why in err


def test_verify_paper_section2(files, capsys, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    code, out, _ = run(capsys, "verify", "paper", "--section", "2")
    assert code == 0
    assert "paper.s2.omega" in out
    assert "fixtures pass" in out


def test_verify_paper_all(files, capsys, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    code, out, _ = run(capsys, "verify", "paper")
    assert code == 0
    assert "FAIL" not in out


def test_color_disabled_by_env(files, capsys, monkeypatch):
    monkeypatch.setenv("SUPERBIALG_COLOR", "0")
    code, out, _ = run(capsys, "validate", files["sl21.json"])
    assert "\x1b[" not in out
