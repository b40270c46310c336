"""JSON encoding and decoding for every value type.

Scalars travel as decimal strings ("num"/"den") so arbitrary-precision
integers survive; indices are 0-based positions in the basis label list.
Every integer is read exactly: a JSON integer (never a float or a bool),
or for "num"/"den" also a string of decimal digits.  Parities are 0 or 1.
One pair, `tensor_to_json` / `tensor_from_json(d, basis, rank)`, carries a
`graded.Tensor` of any rank: elements, r-matrices, cobracket values and
rank-3 tensors alike.  A cochain's values lie in g (x) g, so each is read
as a rank-2 tensor.  Every document root, and every Gram matrix, is
checked for its shape before it is read.  A double document holds only its
algebra and cobracket: the reader checks that the basis is e_1..e_n,
e_1*..e_n* with |e_i*| = |e_i|, and the pairing and canonical r follow
from that.  Keys a reader does not use are ignored.
Bracket tables list only pairs with i <= j; the i > j half is rebuilt by
super antisymmetry, and diagonal pairs are only accepted for odd vectors.
All round trips are bit-exact.  `dump` writes json.dumps(obj, indent=2,
sort_keys=True) itself, each str or int member inline in its parent.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .graded import Element, GradedBasis, Tensor, Tensor2
from .algebra import BilinearForm, Superalgebra
from .bialgebra import Bialgebra, ManinTriple
from .cohomology import REPEATED_EVEN, Cochain, canonical_tuple
from .double import DoubleAlgebra


class SchemaError(ValueError):
    """The JSON document does not match the expected schema."""


def scalar_to_json(x: Fraction | int, den: int = 1) -> dict:
    """x/den in lowest terms, den > 0: a Fraction, or an int numerator of
    an integer table over its denominator."""
    num, den = x.numerator, x.denominator * den
    c = gcd(num, den)
    return {"num": str(num // c), "den": str(den // c)}


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _integer(x, what: str, text: bool = False, shown=None) -> int:
    """An integer read from JSON: a JSON integer, not a bool or a float
    (not even an integral one); with `text`, also a string of decimal
    digits.  Errors name `what` and `shown` (default: the value itself)."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if text and isinstance(x, str) and _DECIMAL.fullmatch(x):
        return int(x)
    raise SchemaError(f"{what} {x if shown is None else shown!r} "
                      f"is not integral")


def _parity(x, what: str) -> int:
    if _integer(x, what) not in (0, 1):
        raise SchemaError(f"{what} {x!r} must be 0 or 1")
    return x


def scalar_from_json(d) -> Fraction:
    try:
        return Fraction(_integer(d["num"], "num", text=True),
                        _integer(d["den"], "den", text=True))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"bad scalar {d!r}") from e


def basis_to_json(b: GradedBasis) -> dict:
    return {"basis": list(b.labels), "parities": list(b.parities)}


def basis_from_json(d) -> GradedBasis:
    try:
        labels, parities = d["basis"], d["parities"]
    except (KeyError, TypeError) as e:
        raise SchemaError(f"bad basis: {e}") from e
    if not isinstance(parities, list):
        raise SchemaError("bad basis: parities must be a list")
    parities = [_parity(p, "basis parity") for p in parities]
    try:
        return GradedBasis(labels, parities)
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad basis: {e}") from e


def tensor_to_json(t: Tensor) -> dict:
    return {"basis": list(t.basis.labels),
            "entries": [{"idx": list(t.legs(k)), **scalar_to_json(c)}
                        for k, c in sorted(t.entries.items())]}


def _root(d, what: str) -> dict:
    """`d`, checked to be a JSON object; errors name it `what`."""
    if not isinstance(d, dict):
        raise SchemaError(f"{what} JSON must be an object, "
                          f"not {type(d).__name__}")
    return d


def _objects(d, key: str, required: bool = False) -> list:
    """The list of JSON objects under `key`; empty when a key that is not
    `required` is absent."""
    items = d[key] if required else d.get(key, [])
    if not (isinstance(items, list)
            and all(isinstance(x, dict) for x in items)):
        raise SchemaError(f"{key!r} must be a list of objects")
    return items


def _check_labels(d, basis: GradedBasis):
    if _root(d, "tensor").get("basis") != list(basis.labels):
        raise SchemaError("labels do not match the expected basis")


def _index(x, size: int, what: str, shown=None) -> int:
    """A basis index read from JSON: an integer (not a bool) in range(size).

    Errors name `what` and `shown` (default: the index itself)."""
    shown = x if shown is None else shown
    _integer(x, what, shown=shown)
    if not 0 <= x < size:
        raise SchemaError(f"{what} {shown!r} is out of range for a basis of "
                          f"{size} vectors")
    return x


def _read_entries(d, rank: int, size: int):
    """Entries keyed by index tuples, each index in range(size)."""
    out = {}
    for ent in _objects(d, "entries"):
        idx = ent.get("idx")
        if not isinstance(idx, list) or len(idx) != rank:
            raise SchemaError(f"entry index {idx!r} must have {rank} slots")
        key = tuple(_index(i, size, "entry index", idx) for i in idx)
        out[key] = scalar_from_json(ent)
    return out


def tensor_from_json(d, basis: GradedBasis, rank: int) -> Tensor:
    """A rank-`rank` tensor with every leg over `basis`, of the class the
    package builds: `Element`, `Tensor2`, or `Tensor` from rank 3."""
    _check_labels(d, basis)
    entries = _read_entries(d, rank, len(basis))
    if rank == 1:
        return Element(basis, {i: c for (i,), c in entries.items()})
    if rank == 2:
        return Tensor2(basis, basis, entries)
    return Tensor(basis, entries, rank)


# ---------------------------------------------------------------------------
# superalgebras
# ---------------------------------------------------------------------------

def superalgebra_to_json(g: Superalgebra) -> dict:
    """The pairs i <= j of the integer table; i > j is rebuilt on reading."""
    den, num = g.int_table
    brackets = [{"i": i, "j": j, "terms": [
                    {"k": k, **scalar_to_json(x, den)}
                    for k, x in sorted(row.items())]}
                for i, rs in enumerate(num) for j in range(i, len(rs))
                if (row := rs[j])]
    return {**basis_to_json(g.basis), "brackets": brackets}


def superalgebra_from_json(d) -> Superalgebra:
    """Read a bracket table; the abelian algebra needs `"brackets": []`."""
    basis = basis_from_json(d)
    n = len(basis)
    brackets = d.get("brackets")
    if not isinstance(brackets, list):
        raise SchemaError("superalgebra JSON needs a 'brackets' list")
    half: dict[tuple[int, int, int], Fraction] = {}
    for ent in brackets:
        try:
            i, j, terms = ent["i"], ent["j"], ent["terms"]
            ks = [term["k"] for term in terms]
        except (KeyError, TypeError) as e:
            raise SchemaError(f"bad bracket entry {ent!r}") from e
        i = _index(i, n, "bracket index i")
        j = _index(j, n, "bracket index j")
        if i > j:
            raise SchemaError("bracket tables list only pairs with i <= j")
        for k, term in zip(ks, terms):
            half[(i, j, _index(k, n, "bracket term index k"))] = \
                scalar_from_json(term)
    try:
        return Superalgebra.from_half_table(basis, half)
    except ValueError as e:
        raise SchemaError(str(e)) from e


# ---------------------------------------------------------------------------
# cochains and bialgebras
# ---------------------------------------------------------------------------

def cochain_to_json(c: Cochain) -> dict:
    values = [{"args": list(args), "value": tensor_to_json(v)}
              for args, v in sorted(c.values.items())]
    return {"degree": c.degree, "parity": c.parity, "values": values}


def cochain_from_json(d, g: Superalgebra) -> Cochain:
    """Read a cochain on g; each value is a rank-2 tensor, in g (x) g."""
    try:
        degree, parity = d["degree"], d["parity"]
    except (KeyError, TypeError) as e:
        raise SchemaError("cochain needs integer degree and parity") from e
    degree = _integer(degree, "cochain degree")
    if degree < 0:
        raise SchemaError(f"cochain degree {degree} is negative")
    parity = _parity(parity, "cochain parity")
    n = len(g.basis)
    values: dict = {}
    for pos, ent in enumerate(_objects(d, "values")):
        try:
            args, vj = ent["args"], ent["value"]
        except KeyError as e:
            raise SchemaError(f"cochain value {pos} needs {e} field") from e
        if not isinstance(args, list) or len(args) != degree:
            raise SchemaError(f"cochain args {args!r} must list "
                              f"{degree} indices")
        args = tuple(_index(a, n, "cochain argument") for a in args)
        val = tensor_from_json(vj, g.basis, 2)
        if canonical_tuple(g.basis, args)[0] is None and not val.is_zero():
            raise SchemaError(f"cochain args {list(args)!r}: {REPEATED_EVEN}")
        values[args] = values[args] + val if args in values else val
    return Cochain(g, degree, parity, values)


def bialgebra_to_json(b: Bialgebra) -> dict:
    return {"algebra": superalgebra_to_json(b.algebra),
            "delta": cochain_to_json(b.delta)}


def bialgebra_from_json(d, check: bool = True) -> Bialgebra:
    try:
        alg = superalgebra_from_json(_root(d, "bialgebra")["algebra"])
        delta = cochain_from_json(d["delta"], alg)
    except KeyError as e:
        raise SchemaError(f"bialgebra JSON needs {e} field") from e
    return Bialgebra(alg, delta, check=check)


# ---------------------------------------------------------------------------
# forms, triples and doubles
# ---------------------------------------------------------------------------

def gram_to_json(form: BilinearForm) -> list:
    return [[scalar_to_json(c) for c in row] for row in form.gram]


def gram_from_json(rows, basis: GradedBasis) -> BilinearForm:
    n = len(basis)
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(row, list) and len(row) == n for row in rows)):
        raise SchemaError(f"gram must be {n} lists of {n} scalars, one "
                          f"row per basis vector")
    return BilinearForm(basis, [[scalar_from_json(c) for c in row]
                                for row in rows])


def manin_to_json(t: ManinTriple) -> dict:
    return {
        "ambient": superalgebra_to_json(t.ambient),
        "plus": [tensor_to_json(v) for v in t.plus],
        "minus": [tensor_to_json(v) for v in t.minus],
        "gram": gram_to_json(t.form),
    }


def manin_from_json(d) -> ManinTriple:
    try:
        ambient = superalgebra_from_json(_root(d, "Manin triple")["ambient"])
        plus = [tensor_from_json(v, ambient.basis, 1)
                for v in _objects(d, "plus", required=True)]
        minus = [tensor_from_json(v, ambient.basis, 1)
                 for v in _objects(d, "minus", required=True)]
        form = gram_from_json(d["gram"], ambient.basis)
    except KeyError as e:
        raise SchemaError(f"Manin triple JSON needs {e} field") from e
    return ManinTriple(ambient, form, plus, minus)


def double_to_json(dd: DoubleAlgebra) -> dict:
    return {"type": "double", "algebra": superalgebra_to_json(dd.underlying),
            "delta": cochain_to_json(dd.delta)}


def double_from_json(d) -> DoubleAlgebra:
    """Read a double's algebra and cobracket; its basis must be e_1..e_n,
    e_1*..e_n* with |e_i*| = |e_i|, which fixes the pairing and r."""
    if _root(d, "double").get("type") != "double":
        raise SchemaError("expected a document with type = 'double'")
    try:
        alg = superalgebra_from_json(d["algebra"])
        delta = cochain_from_json(d["delta"], alg)
    except KeyError as e:
        raise SchemaError(f"double JSON needs {e} field") from e
    par, lab = alg.basis.parities, alg.basis.labels
    n = len(par) // 2
    if 2 * n != len(par) or par[:n] != par[n:]:
        raise SchemaError(f"a double's basis is e_1..e_n, e_1*..e_n* with "
                          f"|e_i*| = |e_i|, not parities {list(par)}")
    if lab[n:] != tuple(x + "*" for x in lab[:n]):
        raise SchemaError(f"a double's basis is e_1..e_n, e_1*..e_n*, not "
                          f"{list(lab)}")
    return DoubleAlgebra(alg, delta)


_LEAVES = {dict: lambda _: "{}", list: lambda _: "[]", str: _quote,
           int: int.__repr__, bool: lambda b: "true" if b else "false",
           type(None): lambda _: "null"}


def _encode(obj, pad: str) -> str:
    """json's dumps(obj, indent=2, sort_keys=True), indented by `pad`.  A str
    or int member is written in its parent's comprehension, with no call."""
    inner = pad + "  "
    if type(obj) is dict and obj:  # `for v in [obj[k]]` binds v = obj[k]
        return ("{\n" + inner + (",\n" + inner).join([
            _quote(k) + ": " + (_quote(v) if type(v) is str else repr(v)
                                if type(v) is int else _encode(v, inner))
            for k in sorted(obj) for v in [obj[k]]]) + "\n" + pad + "}")
    if type(obj) is list and obj:
        return ("[\n" + inner + (",\n" + inner).join([
            _quote(x) if type(x) is str else repr(x) if type(x) is int
            else _encode(x, inner) for x in obj]) + "\n" + pad + "]")
    leaf = _LEAVES.get(type(obj))
    if leaf is None:
        raise TypeError(f"a document cannot hold a {type(obj).__name__}")
    return leaf(obj)


def dump(obj: dict, path: str | None = None) -> str:
    text = _encode(obj, "")
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
