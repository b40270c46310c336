"""The command's input contract on mutated and random documents.

Every subcommand is run in process on the committed golden input documents
with one mutation (a deleted key, a value replaced by random JSON, a
truncated list) or on random bytes.  Whatever the input, the command must
exit 0, 1 or 2 without raising; exit 2 must come with an `error:` line on
stderr and nothing on stdout, and with `--format json` any stdout must be
one JSON document.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbialg.cli import main

from golden.regen import INPUTS

BIALGEBRAS = ["s-delta-1", "s-delta-2", "t-delta-1", "t-delta-2",
              "sl21-delta-f", "sl21-delta-s", "sl21-seed1"]

# (subcommand, the argument vector with the fuzzed document at `p`, the
# golden documents that fit that slot)
SLOTS = [
    ("validate", lambda p: ["validate", p], ["sl21", "s", "t"]),
    ("cocommutator", lambda p: ["cocommutator", p, "--r", _doc("r-f")],
     ["sl21"]),
    ("cocommutator", lambda p: ["cocommutator", _doc("sl21"), "--r", p],
     ["r-f"]),
    ("dual", lambda p: ["dual", p], BIALGEBRAS),
    ("double", lambda p: ["double", p], BIALGEBRAS),
    ("restrict", lambda p: ["restrict", p, "--span", _doc("s1-span")],
     ["sl21-delta-f", "sl21-delta-s"]),
    ("restrict", lambda p: ["restrict", _doc("sl21-delta-f"), "--span", p],
     ["s1-span"]),
    ("manin", lambda p: ["manin", p], ["manin-s", "manin-t"]),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _doc(name: str) -> str:
    return str(INPUTS / f"{name}.json")


def _places(doc, path=()):
    """Every (container path, key or index) inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _places(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def documents(draw, name: str) -> bytes:
    """The golden document `name` with one mutation, or random bytes."""
    kind = draw(st.sampled_from(["delete", "replace", "truncate", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    doc = json.loads((INPUTS / f"{name}.json").read_text())
    if kind == "truncate":
        lists = [(p, k) for p, k in _places(doc)
                 if isinstance(_at(doc, p)[k], list)]
        path, key = draw(st.sampled_from(lists))
        items = _at(doc, path)[key]
        del items[draw(st.integers(0, len(items))):]
    else:
        places = [(p, k) for p, k in _places(doc)
                  if kind == "replace" or isinstance(_at(doc, p), dict)]
        path, key = draw(st.sampled_from(places))
        if kind == "delete":
            del _at(doc, path)[key]
        else:
            _at(doc, path)[key] = draw(json_values)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusing an argument
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err, fmt):
    assert code in (0, 1, 2), (code, out, err)
    if code == 2:
        assert out == ""
        assert any(line.startswith("error:") or ": error:" in line
                   for line in err.splitlines()), err
    elif fmt == "json":
        json.loads(out)


@given(data=st.data(), slot=st.sampled_from(SLOTS),
       fmt=st.sampled_from(["text", "json"]))
@settings(max_examples=100, deadline=None)
def test_every_subcommand_keeps_its_contract(workdir, data, slot, fmt):
    _, argv_of, names = slot
    raw = data.draw(documents(data.draw(st.sampled_from(names))))
    path = workdir / "doc.json"
    path.write_bytes(raw)
    code, out, err = _run(argv_of(str(path)) + ["--format", fmt])
    _assert_contract(code, out, err, fmt)


@given(section=st.text(max_size=4), fmt=st.sampled_from(["text", "json"]))
@settings(max_examples=10, deadline=None)
def test_verify_keeps_its_contract(section, fmt):
    code, out, err = _run(["verify", "paper", "--section", section,
                           "--format", fmt])
    _assert_contract(code, out, err, fmt)


# every subcommand on a golden document, plus `restrict` on a span delta_s
# does not close on, whose failure document goes through `main`'s own
# failure path
OUT_CASES = [argv_of(_doc(names[0])) for _, argv_of, names in SLOTS] + [
    ["verify", "paper", "--section", "2"],
    ["restrict", _doc("sl21-delta-s"), "--span", _doc("s1-span")],
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", OUT_CASES,
                         ids=[f"{a[0]}-{i}" for i, a in enumerate(OUT_CASES)])
def test_an_unwritable_out_path_exits_2(argv, fmt, tmp_path):
    out_path = str(tmp_path / "missing" / "x.json")
    code, out, err = _run(argv + ["--format", fmt, "--out", out_path])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}:"), err
    _assert_contract(code, out, err, fmt)
