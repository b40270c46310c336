"""A seeded corpus of perturbed bialgebras and what the checks make of each.

    PYTHONPATH=src python tests/corpus/regen.py

rebuilds every input of `inputs()` and rewrites two files, one line per
input: its id, a description of how it was made, and an outcome.

* `build_double.jsonl`: the outcome of `double.build_double`.  An accepted
  input records the SHA-256 of its double's `serialize.double_to_json`
  document (compact JSON, sorted keys); a rejected one records the
  exception class and its message.
* `verify.jsonl`: every check, as [name, passed, detail], of three
  reports: `Bialgebra.verify`, `bialgebra.check_compatibility`, and the
  `validate` of the dual table Superalgebra(dual_basis, exchange(D)).

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
SEED_INPUT = HERE.parent / "golden" / "inputs" / "sl21-seed1.json"
PERTURBED = 400

BASES = ("s_bialgebra_1", "s_bialgebra_2", "t_bialgebra_1", "t_bialgebra_2",
         "bialgebra_f", "bialgebra_s", "sl21-seed1")
KINDS = ("scale delta", "scale bracket", "graded wedge", "ungraded wedge",
         "tensor entry", "bracket entry")
SCALARS = tuple(Fraction(c) for c in ("-2", "-1", "1/2", "3", "-3/2"))


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


def outcome(b) -> dict:
    """What `build_double` makes of b: the hash of its double, or the
    exception it raises."""
    from superbialg import build_double, serialize
    try:
        d = build_double(b)
    except Exception as e:  # every rejection is recorded, whatever its class
        return {"raises": type(e).__name__, "message": str(e)}
    text = json.dumps(serialize.double_to_json(d), sort_keys=True,
                      separators=(",", ":"))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


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


def lines() -> dict[Path, list[str]]:
    """The lines of both corpus files, from one pass over the inputs."""
    out: dict[Path, list[str]] = {CORPUS: [], VERIFY_CORPUS: []}
    for name, what, b in inputs():
        for path, result in ((CORPUS, outcome(b)), (VERIFY_CORPUS, reports(b))):
            out[path].append(json.dumps({"id": name, "input": what, **result},
                                        sort_keys=True))
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    for path, text in lines().items():
        path.write_text("\n".join(text) + "\n")
        print(f"wrote {path.name}")
