"""Bit-exact JSON round trips and schema validation."""

import json
import re
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superbialg import build_double
from superbialg import catalog as cat
from superbialg import serialize as ser
from superbialg.graded import Element, Tensor, Tensor2
from corpus.regen import CORPUS, inputs
from golden.regen import HERE as GOLDEN
from slmn import standard

B = cat.sl21_basis()
V = cat.V


def roundtrip(obj):
    return json.loads(json.dumps(obj))


def test_scalar_strings_survive_big_integers():
    c = Q(10**40 + 7, 3**30)
    assert ser.scalar_from_json(roundtrip(ser.scalar_to_json(c))) == c


def test_element_roundtrip():
    e = Q(22, 7) * V("E12") - 5 * V("E32")
    doc = roundtrip(ser.tensor_to_json(e))
    assert ser.tensor_from_json(doc, B, 1) == e


def test_tensor2_roundtrip():
    t = cat.r_f()
    doc = roundtrip(ser.tensor_to_json(t))
    assert ser.tensor_from_json(doc, B, 2) == t


def test_tensor3_roundtrip():
    t = Tensor(B, {(0, 4, 7): Q(-3, 2), (1, 1, 1): Q(5)}, 3)
    doc = roundtrip(ser.tensor_to_json(t))
    assert ser.tensor_from_json(doc, B, 3) == t


@pytest.mark.parametrize("rank, cls", [(1, Element), (2, Tensor2),
                                       (3, Tensor)])
def test_a_tensor_reads_back_as_the_class_it_was_built_as(rank, cls):
    built = {1: V("E12") - V("E32"), 2: cat.r_f(),
             3: Tensor(B, {(0, 4, 7): Q(-3, 2)}, 3)}[rank]
    read = ser.tensor_from_json(roundtrip(ser.tensor_to_json(built)), B,
                                rank)
    assert type(read) is type(built) is cls


def test_superalgebra_roundtrip():
    g = cat.sl21()
    doc = roundtrip(ser.superalgebra_to_json(g))
    back = ser.superalgebra_from_json(doc)
    assert back.basis == g.basis
    assert back.constants == g.constants


def test_superalgebra_json_lists_only_lower_pairs():
    doc = ser.superalgebra_to_json(cat.s_algebra())
    for ent in doc["brackets"]:
        assert ent["i"] <= ent["j"]


def test_superalgebra_rejects_upper_pairs():
    doc = ser.superalgebra_to_json(cat.s_algebra())
    doc["brackets"].append({"i": 2, "j": 1,
                            "terms": [{"k": 0, "num": "1", "den": "1"}]})
    with pytest.raises(ser.SchemaError):
        ser.superalgebra_from_json(doc)


def test_superalgebra_rejects_even_diagonal():
    doc = {"basis": ["a", "b"], "parities": [0, 0],
           "brackets": [{"i": 0, "j": 0,
                         "terms": [{"k": 1, "num": "1", "den": "1"}]}]}
    with pytest.raises(ser.SchemaError):
        ser.superalgebra_from_json(doc)


def test_odd_diagonal_bracket_accepted():
    doc = {"basis": ["h", "y"], "parities": [0, 1],
           "brackets": [{"i": 1, "j": 1,
                         "terms": [{"k": 0, "num": "2", "den": "1"}]}]}
    g = ser.superalgebra_from_json(doc)
    assert g.bracket_basis(1, 1) == 2 * g.basis.vector(0)


def test_cochain_roundtrip_tensor_values():
    d = cat.delta_f()
    doc = roundtrip(ser.cochain_to_json(d))
    assert ser.cochain_from_json(doc, cat.sl21()) == d


def test_bialgebra_roundtrip():
    b = cat.s_bialgebra_2()
    doc = roundtrip(ser.bialgebra_to_json(b))
    back = ser.bialgebra_from_json(doc)
    assert back.algebra.constants == b.algebra.constants
    assert back.delta == b.delta


def test_manin_roundtrip():
    t = cat.manin_triple_s()
    doc = roundtrip(ser.manin_to_json(t))
    back = ser.manin_from_json(doc)
    assert back.ambient.constants == t.ambient.constants
    assert back.plus == t.plus and back.minus == t.minus
    assert back.form.gram == t.form.gram


def test_double_roundtrip():
    d = cat.double_of_s()
    doc = roundtrip(ser.double_to_json(d))
    back = ser.double_from_json(doc)
    assert back.underlying.constants == d.underlying.constants
    assert back.delta == d.delta
    assert back.form.gram == d.form.gram
    assert back.canonical_r == d.canonical_r
    assert back.primal_dim == d.primal_dim


def test_double_type_tag_required():
    doc = ser.double_to_json(cat.double_of_s())
    doc["type"] = "something"
    with pytest.raises(ser.SchemaError):
        ser.double_from_json(doc)


@pytest.mark.parametrize("path", [
    ("algebra",), ("delta",), ("delta", "values", 0, "args"),
], ids=lambda path: "/".join(map(str, path)))
def test_double_missing_field_is_a_schema_error(path):
    doc = ser.double_to_json(cat.double_of_s())
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    with pytest.raises(ser.SchemaError, match=repr(path[-1])):
        ser.double_from_json(doc)


@pytest.mark.parametrize("field", ["args", "value"])
def test_cochain_value_missing_field_is_named(field):
    doc = ser.bialgebra_to_json(cat.bialgebra_f())
    del doc["delta"]["values"][2][field]
    with pytest.raises(ser.SchemaError,
                       match=f"cochain value 2 needs '{field}' field"):
        ser.bialgebra_from_json(doc)


def basis_document(parities):
    return {"type": "double",
            "algebra": {"basis": ["e0", "e1", "e0*", "e1*"][:len(parities)],
                        "parities": parities, "brackets": []},
            "delta": {"degree": 1, "parity": 0, "values": []}}


def swapped_golden_double():
    # the double of sl(2,1) that `superbialg double` writes, with the labels
    # E12* and E21* swapped everywhere: every parity still matches
    text = (GOLDEN / "double-sl21-seed1.json").read_text()
    return json.loads(text.replace("E12*", "E@*").replace("E21*", "E12*")
                      .replace("E@*", "E21*"))


@pytest.mark.parametrize("doc, error", [
    (basis_document([0, 1, 0]), "not parities [0, 1, 0]"),
    (basis_document([0, 1, 1, 0]), "not parities [0, 1, 1, 0]"),
    (swapped_golden_double(), "'E21*', 'E12*', 'E13*'"),
    (basis_document([0, 1, 0, 1]), None),
], ids=["odd size", "flipped dual parity", "swapped dual labels", "valid"])
def test_double_basis_is_a_basis_then_its_dual(doc, error):
    if error:
        with pytest.raises(ser.SchemaError, match=re.escape(error)):
            ser.double_from_json(doc)
        return
    d = ser.double_from_json(doc)
    assert d.primal_dim == 2
    assert [[int(c) for c in row] for row in d.form.gram] == [
        [0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert d.canonical_r.entries == {(0, 2): 1, (1, 3): 1}


def test_a_double_document_with_its_derived_fields_reads_the_same():
    # the format before the pairing, r and n were derived: extra keys
    d = cat.double_of_t()
    doc = {**ser.double_to_json(d), "gram": ser.gram_to_json(d.form),
           "canonical_r": ser.tensor_to_json(d.canonical_r),
           "primal_dim": d.primal_dim}
    back = ser.double_from_json(roundtrip(doc))
    assert back.underlying.basis == d.underlying.basis
    assert back.underlying.constants == d.underlying.constants
    assert back.delta == d.delta
    assert back.form.gram == d.form.gram
    assert back.canonical_r == d.canonical_r
    assert back.primal_dim == d.primal_dim == 4


@pytest.mark.parametrize("read", [ser.bialgebra_from_json,
                                  ser.manin_from_json, ser.double_from_json],
                         ids=lambda f: f.__name__)
def test_document_root_must_be_an_object(read):
    with pytest.raises(ser.SchemaError, match="must be an object, not list"):
        read([])


def test_label_mismatch_rejected():
    doc = ser.tensor_to_json(cat.r_f())
    doc["basis"][0] = "renamed"
    with pytest.raises(ser.SchemaError):
        ser.tensor_from_json(doc, B, 2)


def test_bad_scalar_rejected():
    with pytest.raises(ser.SchemaError):
        ser.scalar_from_json({"num": "x", "den": "1"})


def test_scalar_accepts_integers_and_decimal_strings():
    assert ser.scalar_from_json({"num": -3, "den": "+4"}) == Q(-3, 4)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "1.5", " 1", "1e3", None])
def test_scalar_rejects_non_integers(bad):
    with pytest.raises(ser.SchemaError):
        ser.scalar_from_json({"num": bad, "den": "1"})
    with pytest.raises(ser.SchemaError):
        ser.scalar_from_json({"num": "1", "den": bad})


def test_cochain_values_share_one_module():
    # every value is read in g (x) g, so an element of g is refused
    doc = ser.cochain_to_json(cat.delta_f())
    doc["values"][-1]["value"] = ser.tensor_to_json(V("E12"))
    with pytest.raises(ser.SchemaError, match="2 slots"):
        ser.cochain_from_json(doc, cat.sl21())


# -- the document writer ------------------------------------------------------

def indented(doc):
    """The reference `serialize.dump` reproduces byte for byte."""
    return json.dumps(doc, indent=2, sort_keys=True)


_text = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\n\t\r\x7f", "ñ€", "\U0001d11e", ""])
_leaf = (st.none() | st.booleans() | st.integers() | _text
         | st.integers(min_value=10**49, max_value=10**70)
         | st.integers(min_value=-10**70, max_value=-10**49))
_tree = st.recursive(
    _leaf, lambda kids: (st.lists(kids, max_size=4)
                         | st.dictionaries(_text, kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_tree)
@example({"a": {}, "b": [], "c": [{}, [], [[]], {"d": {"e": []}}], "": None})
def test_dump_matches_json_dumps_on_random_trees(doc):
    assert ser.dump(doc) == indented(doc)


def test_dump_matches_json_dumps_on_the_corpus_documents():
    accepted = sum("sha256" in json.loads(line)
                   for line in CORPUS.read_text().splitlines())
    doubles = 0
    for _, _, b in inputs():
        doc = ser.bialgebra_to_json(b)
        assert ser.dump(doc) == indented(doc)
        try:
            dd = build_double(b)
        except ValueError:  # a rejected input has no double
            continue
        doc = ser.double_to_json(dd)
        assert ser.dump(doc) == indented(doc)
        doubles += 1
    assert doubles == accepted


def test_dump_matches_json_dumps_on_the_sl31_double():
    doc = ser.double_to_json(build_double(standard(3, 1)[2]))
    assert len(doc["algebra"]["basis"]) == 30
    assert ser.dump(doc) == indented(doc)


@pytest.mark.parametrize("value, name", [(1.5, "float"), ((1, 2), "tuple")])
def test_dump_refuses_other_types(value, name):
    with pytest.raises(TypeError, match=name):
        ser.dump({"a": [value]})
