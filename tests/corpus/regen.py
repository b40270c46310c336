"""A seeded corpus of perturbed bialgebras and what the checks make of each.

    PYTHONPATH=src python tests/corpus/regen.py

rebuilds every input of `inputs()` and `restrict_inputs()` and rewrites
three files, one line per input: its id, a description of how it was made,
and an outcome.

* `build_double.jsonl`: the outcome of `double.build_double`.  An accepted
  input records the SHA-256 of its double's `serialize.double_to_json`
  document (compact JSON, sorted keys); a rejected one records the
  exception class and its message.
* `verify.jsonl`: every check, as [name, passed, detail], of three
  reports: `Bialgebra.verify`, `bialgebra.check_compatibility`, and the
  `validate` of the dual table Superalgebra(dual_basis, exchange(D)).
* `restrict.jsonl`: the outcome of `bialgebra.restrict` on a perturbed
  span.  An accepted span records the SHA-256 of the restricted
  bialgebra's `serialize.bialgebra_to_json` document (compact JSON, sorted
  keys); a rejected one records the exception class and its message.

`tests/test_corpus.py` rebuilds the same lines and compares them with the
files.

The inputs start from the six catalog bialgebras and the seed-1 (2|1)
document `tests/golden/inputs/sl21-seed1.json` (the benchmark's rescaled
standard bialgebra).  Each gets one or two perturbations, drawn from a
random generator seeded by the input's id:

* the cobracket or the bracket scaled by a rational;
* c e_i ^ e_j added to delta(e_k), graded (|e_i| + |e_j| = |e_k|) or not;
* a single tensor entry c e_i (x) e_j added to delta(e_k);
* a single bracket constant c added to C(i,j,k).

Every input is built with `check=False`, so `build_double` is the only
judge.  One hand-built input follows them: the abelian algebra on (a | b, c)
with delta(b) = c (x) c, a super-skew and cocycle value that breaks the
grading.

The spans start from the catalog's s1, s2, t1 and t2 spans in sl(2,1),
each restricted from `bialgebra_f` or `bialgebra_s`.  Each gets one or two
perturbations of one of its vectors v, drawn from a generator seeded by
the span's id: v scaled by a rational; a multiple of another span vector
of v's parity (of v itself if there is none) added to v; a multiple of a
basis vector of sl(2,1) added to v, of v's parity or of the other; or v
replaced by a multiple of another span vector.

A change that alters lines of a file on purpose lists them, by class, in
CHANGES.md, as for the golden CLI files.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "build_double.jsonl"
VERIFY_CORPUS = HERE / "verify.jsonl"
RESTRICT_CORPUS = HERE / "restrict.jsonl"
SEED_INPUT = HERE.parent / "golden" / "inputs" / "sl21-seed1.json"
PERTURBED = 400
RESTRICTED = 100

BASES = ("s_bialgebra_1", "s_bialgebra_2", "t_bialgebra_1", "t_bialgebra_2",
         "bialgebra_f", "bialgebra_s", "sl21-seed1")
KINDS = ("scale delta", "scale bracket", "graded wedge", "ungraded wedge",
         "tensor entry", "bracket entry")
SCALARS = tuple(Fraction(c) for c in ("-2", "-1", "1/2", "3", "-3/2"))
SPANS = ("s1_span", "s2_span", "t1_span", "t2_span")
SPAN_KINDS = {"scale": 2, "span vector": 3, "basis vector": 3,
              "ungraded basis vector": 1, "replace": 1}  # kind: weight


def _base(name: str):
    from superbialg import catalog, serialize
    if name == "sl21-seed1":
        return serialize.bialgebra_from_json(
            json.loads(SEED_INPUT.read_text()), check=False)
    return getattr(catalog, name)()


def _perturbed(rng: random.Random, base: str):
    """One input: a base bialgebra with one or two perturbations."""
    from superbialg import Bialgebra, Cochain, Superalgebra, Tensor2
    b = _base(base)
    basis = b.basis
    lab, par, n = basis.labels, basis.parities, len(basis)
    constants = dict(b.algebra.constants)
    delta = {k: dict(t.entries) for (k,), t in b.delta.values.items()}
    steps = [base]

    def add(k, i, j, c):
        row = delta.setdefault(k, {})
        row[(i, j)] = row.get((i, j), 0) + c

    for kind in rng.sample(KINDS, rng.choice((1, 2))):
        c = rng.choice(SCALARS)
        k, i = rng.randrange(n), rng.randrange(n)
        if kind == "scale delta":
            delta = {k: {ij: c * x for ij, x in row.items()}
                     for k, row in delta.items()}
            steps.append(f"delta scaled by {c}")
        elif kind == "scale bracket":
            constants = {key: c * x for key, x in constants.items()}
            steps.append(f"bracket scaled by {c}")
        elif kind.endswith("wedge"):
            want = (par[k] + par[i]) % 2
            if kind == "ungraded wedge":
                want = 1 - want
            js = [j for j in range(n) if par[j] == want
                  and not (j == i and par[i] == 0)]
            if not js:
                steps.append(f"{kind}: none at {lab[k]}")
                continue
            j = rng.choice(js)
            if i == j:
                add(k, i, i, 2 * c)
            else:
                add(k, i, j, c)
                add(k, j, i, c if par[i] and par[j] else -c)
            steps.append(f"{c} {lab[i]} ^ {lab[j]} added to delta({lab[k]})")
        elif kind == "tensor entry":
            j = rng.randrange(n)
            add(k, i, j, c)
            steps.append(f"{c} {lab[i]} (x) {lab[j]} added to delta({lab[k]})")
        else:
            j = rng.randrange(n)
            constants[(i, j, k)] = constants.get((i, j, k), 0) + c
            steps.append(f"{c} added to C({lab[i]},{lab[j]} -> {lab[k]})")
    g = Superalgebra(basis, constants)
    cochain = Cochain(g, 1, 0)
    for k, row in sorted(delta.items()):
        cochain.set_value((k,), Tensor2(basis, basis, row))
    return "; ".join(steps), Bialgebra(g, cochain, check=False)


def _misgraded():
    """Abelian (a | b, c) with delta(b) = c (x) c: even value, odd vector."""
    from superbialg import (Bialgebra, Cochain, GradedBasis, Superalgebra,
                            Tensor2)
    basis = GradedBasis(["a", "b", "c"], [0, 1, 1])
    g = Superalgebra(basis, {})
    delta = Cochain(g, 1, 0, {(1,): Tensor2(basis, basis, {(2, 2): 1})})
    return ("abelian (a | b, c) with delta(b) = c (x) c",
            Bialgebra(g, delta, check=False))


def inputs():
    """(id, description, unchecked bialgebra) for every corpus input."""
    for i in range(PERTURBED):
        rng = random.Random(f"corpus-{i}")
        yield (f"p{i:03d}", *_perturbed(rng, rng.choice(BASES)))
    yield ("misgraded", *_misgraded())


def _perturbed_span(rng: random.Random):
    """One restriction: a catalog bialgebra and a perturbed catalog span."""
    from superbialg import catalog
    base, span = rng.choice(("bialgebra_f", "bialgebra_s")), rng.choice(SPANS)
    sub = list(getattr(catalog, span)())
    basis = catalog.sl21_basis()
    steps = [f"{base}, {span}"]
    kinds = rng.choices(list(SPAN_KINDS), list(SPAN_KINDS.values()),
                        k=rng.choice((1, 2)))
    for kind in kinds:
        c, a = rng.choice(SCALARS), rng.randrange(len(sub))
        par = sub[a].parity()
        if kind == "scale":
            sub[a] = sub[a].scale(c)
            steps.append(f"v{a} scaled by {c}")
        elif kind.endswith("basis vector"):
            want = par if kind == "basis vector" else 1 - par
            j = rng.choice([j for j in range(len(basis))
                            if basis.parity(j) == want])
            sub[a] = sub[a] + basis.vector(j).scale(c)
            steps.append(f"{c} {basis.labels[j]} added to v{a}")
        else:
            b = rng.choice([b for b in range(len(sub)) if b != a
                            and (kind == "replace" or sub[b].parity() == par)]
                           or [a])
            if kind == "replace":
                sub[a] = sub[b].scale(c)
                steps.append(f"v{a} replaced by {c} v{b}")
            else:
                sub[a] = sub[a] + sub[b].scale(c)
                steps.append(f"{c} v{b} added to v{a}")
    return "; ".join(steps), getattr(catalog, base)(), sub


def restrict_inputs():
    """(id, description, bialgebra, sub vectors) for every restriction."""
    for i in range(RESTRICTED):
        yield (f"r{i:03d}", *_perturbed_span(random.Random(f"restrict-{i}")))


def _hashed(doc: dict) -> dict:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def restrict_outcome(b, sub) -> dict:
    """What `restrict` makes of the span: the hash of the restricted
    bialgebra, or the exception it raises."""
    from superbialg import restrict, serialize
    try:
        return _hashed(serialize.bialgebra_to_json(restrict(b, sub)))
    except Exception as e:  # every rejection is recorded, whatever its class
        return {"raises": type(e).__name__, "message": str(e)}


def outcome(b) -> dict:
    """What `build_double` makes of b: the hash of its double, or the
    exception it raises."""
    from superbialg import build_double, serialize
    try:
        d = build_double(b)
    except Exception as e:  # every rejection is recorded, whatever its class
        return {"raises": type(e).__name__, "message": str(e)}
    return _hashed(serialize.double_to_json(d))


def reports(b) -> dict:
    """The checks of `verify`, `check_compatibility` and the dual table's
    `validate` on b, each as a list of [name, passed, detail]."""
    from superbialg import Superalgebra, check_compatibility
    from superbialg.bialgebra import delta_constants, dual_basis, exchange
    dual = Superalgebra(dual_basis(b.basis),
                        exchange(b.basis, delta_constants(b)))
    return {name: [[c.name, c.passed, c.detail] for c in rep.checks]
            for name, rep in (("verify", b.verify()),
                              ("compatibility",
                               check_compatibility(b.algebra, b.delta)),
                              ("dual validate", dual.validate()))}


def _line(name: str, what: str, result: dict) -> str:
    return json.dumps({"id": name, "input": what, **result}, sort_keys=True)


def lines() -> dict[Path, list[str]]:
    """The lines of the three corpus files; the first two come from one
    pass over the inputs."""
    out: dict[Path, list[str]] = {CORPUS: [], VERIFY_CORPUS: []}
    for name, what, b in inputs():
        for path, result in ((CORPUS, outcome(b)), (VERIFY_CORPUS, reports(b))):
            out[path].append(_line(name, what, result))
    out[RESTRICT_CORPUS] = [_line(name, what, restrict_outcome(b, sub))
                            for name, what, b, sub in restrict_inputs()]
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    for path, text in lines().items():
        path.write_text("\n".join(text) + "\n")
        print(f"wrote {path.name}")
