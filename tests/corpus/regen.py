"""A seeded corpus of perturbed bialgebras and what the checks make of each.

    PYTHONPATH=src python tests/corpus/regen.py

rebuilds every input of `inputs()`, `restrict_inputs()` and `map_inputs()`
and rewrites five files, one line per input: its id, a description of how
it was made, and an outcome.

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
* `maps.jsonl`: every check, as [name, passed, detail], of the map and
  form checks on a perturbed catalog map, Gram matrix or Manin span:
  `check_f_equation`, `check_homomorphism`, `check_bialgebra_homomorphism`,
  `double.identify`, `check_manin_triple` and `check_invariance`, as they
  apply to it.
* `dual.jsonl`: the outcomes of `bialgebra.dual_bracket` and of
  `double.dual_bialgebra` on every input of `build_double.jsonl`.  An
  accepted input records the SHA-256 of `serialize.superalgebra_to_json`
  or `serialize.bialgebra_to_json` of the dual (compact JSON, sorted
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

The map inputs start from a subject drawn by weight from a generator
seeded by the input's id.  The maps are the catalog's f_map and f_standard
(checked by the f-equation on sl(2,1)), i1 and is1 (bialgebra maps into
the f and the standard structure), i2 and is2 (bracket maps from the duals
of the second structures), the four self-duality maps, the negation map
onto the opposite structure and both identifications of a double with
sl(2,1).  Each gets one or two perturbations of its images: an image
scaled by a rational; a multiple of a basis vector added to an image, of
its parity or of the other; an image replaced by 0; or two images
swapped.  The supertrace Gram matrix gets one
or two of: a rational added to one entry, or to one entry and its
super-symmetric mirror; the whole matrix scaled by a rational.  It is
checked for invariance on sl(2,1), in the Manin triple (S2, S1), and as
the target form of the identification of the double of s.  The pairing
of each 16-dim double gets the same perturbations and is checked for
invariance on the double and as the form that the identification pulls
back.  The Manin triples (S2, S1) and (T2, T1) get one half perturbed as
the spans above.

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
MAPS_CORPUS = HERE / "maps.jsonl"
DUAL_CORPUS = HERE / "dual.jsonl"
SEED_INPUT = HERE.parent / "golden" / "inputs" / "sl21-seed1.json"
PERTURBED = 400
RESTRICTED = 100
MAPPED = 200

BASES = ("s_bialgebra_1", "s_bialgebra_2", "t_bialgebra_1", "t_bialgebra_2",
         "bialgebra_f", "bialgebra_s", "sl21-seed1")
KINDS = ("scale delta", "scale bracket", "graded wedge", "ungraded wedge",
         "tensor entry", "bracket entry")
SCALARS = tuple(Fraction(c) for c in ("-2", "-1", "1/2", "3", "-3/2"))
SPANS = ("s1_span", "s2_span", "t1_span", "t2_span")
SPAN_KINDS = {"scale": 2, "span vector": 3, "basis vector": 3,
              "ungraded basis vector": 1, "replace": 1}  # kind: weight
MAP_SUBJECTS = ("f_map", "f_standard", "i1_map", "is1_map", "i2_map",
                "is2_map", "dual_iso_1", "dual_iso_2", "dual_iso_t1",
                "dual_iso_t2", "negation_map", "double_s_identification",
                "double_t_identification")
MAPS = dict.fromkeys(MAP_SUBJECTS, 1)
MAPS.update(supertrace_gram=3, double_of_s=2, double_of_t=2,
            manin_triple_s=2, manin_triple_t=2)  # subject: weight
MAP_KINDS = ("scale", "basis vector", "ungraded basis vector", "zero", "swap")
GRAM_KINDS = ("entry", "super-symmetric entry", "scale")


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
    steps = [f"{base}, {span}"]
    _perturb_span(rng, sub, steps)
    return "; ".join(steps), getattr(catalog, base)(), sub


def _perturb_span(rng: random.Random, sub: list, steps: list) -> None:
    """Perturb one or two vectors of a span of sl(2,1) in place."""
    from superbialg import catalog
    basis = catalog.sl21_basis()
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


def restrict_inputs():
    """(id, description, bialgebra, sub vectors) for every restriction."""
    for i in range(RESTRICTED):
        yield (f"r{i:03d}", *_perturbed_span(random.Random(f"restrict-{i}")))


def _perturb_map(rng: random.Random, phi, steps: list):
    """phi with one or two of its images perturbed."""
    from superbialg import LinearMap
    src, tgt = phi.source, phi.target
    images = list(phi.images)
    for kind in rng.sample(MAP_KINDS, rng.choice((1, 2))):
        c, a = rng.choice(SCALARS), rng.randrange(len(images))
        if kind == "scale":
            images[a] = images[a].scale(c)
            steps.append(f"phi({src.labels[a]}) scaled by {c}")
        elif kind.endswith("basis vector"):
            want = src.parity(a)
            if kind != "basis vector":
                want = 1 - want
            j = rng.choice([j for j in range(len(tgt))
                            if tgt.parity(j) == want])
            images[a] = images[a] + tgt.vector(j).scale(c)
            steps.append(f"{c} {tgt.labels[j]} added to phi({src.labels[a]})")
        elif kind == "zero":
            images[a] = tgt.zero()
            steps.append(f"phi({src.labels[a]}) replaced by 0")
        else:
            b = rng.choice([b for b in range(len(images)) if b != a])
            images[a], images[b] = images[b], images[a]
            steps.append(f"phi({src.labels[a]}) and phi({src.labels[b]}) "
                         f"swapped")
    return LinearMap(src, tgt, images)


def _perturb_gram(rng: random.Random, form, steps: list):
    """The form with one or two perturbations of its Gram matrix."""
    from superbialg import BilinearForm
    from superbialg.graded import koszul
    gram = [list(row) for row in form.gram]
    n, par, lab = len(form.basis), form.basis.parity, form.basis.labels
    for kind in rng.sample(GRAM_KINDS, rng.choice((1, 2))):
        c, i, j = rng.choice(SCALARS), rng.randrange(n), rng.randrange(n)
        if kind == "scale":
            gram = [[c * x for x in row] for row in gram]
            steps.append(f"Gram matrix scaled by {c}")
            continue
        gram[i][j] += c
        if kind == "entry":
            steps.append(f"{c} added to G({lab[i]}, {lab[j]})")
        elif i != j:
            gram[j][i] += koszul(par(i), par(j)) * c
            steps.append(f"{c} added to G({lab[i]}, {lab[j]}) and its mirror")
        else:
            steps.append(f"{c} added to G({lab[i]}, {lab[i]})")
    return BilinearForm(form.basis, gram)


def _map_reports(rng: random.Random, subject: str):
    """(description, {report: check lines}) of one perturbed subject."""
    from superbialg import (
        DoubleAlgebra, ManinTriple, catalog as cat,
        check_bialgebra_homomorphism, check_f_equation, check_homomorphism,
        check_invariance, check_manin_triple, dual_bracket, identify,
        opposite,
    )
    steps = [subject]
    if subject == "negation_map":
        phi = _perturb_map(rng, cat.negation_map(cat.s_basis()), steps)
    elif subject in MAP_SUBJECTS:
        phi = _perturb_map(rng, getattr(cat, subject)(), steps)
    if subject in ("f_map", "f_standard"):
        runs = {"f-equation": lambda: check_f_equation(cat.sl21(), phi)}
    elif subject in ("i1_map", "is1_map", "negation_map"):
        source, target = {
            "i1_map": (cat.s_bialgebra_2, cat.bialgebra_f),
            "is1_map": (cat.t_bialgebra_2, cat.bialgebra_s),
            "negation_map": (cat.s_bialgebra_2,
                             lambda: opposite(cat.s_bialgebra_1())),
        }[subject]
        runs = {"bialgebra homomorphism": lambda: check_bialgebra_homomorphism(
            phi, source(), target())}
    elif subject.startswith(("i2", "is2", "dual_iso")):
        source, target = {
            "i2_map": (cat.s_bialgebra_2, cat.sl21),
            "is2_map": (cat.t_bialgebra_2, cat.sl21),
            "dual_iso_1": (cat.s_bialgebra_1, cat.s_algebra),
            "dual_iso_2": (cat.s_bialgebra_2, cat.s_algebra),
            "dual_iso_t1": (cat.t_bialgebra_1, cat.t_algebra),
            "dual_iso_t2": (cat.t_bialgebra_2, cat.t_algebra),
        }[subject]
        runs = {"homomorphism": lambda: check_homomorphism(
            phi, dual_bracket(source()), target())}
    elif subject.endswith("identification"):
        d, target = ((cat.double_of_s, cat.bialgebra_f) if "_s_" in subject
                     else (cat.double_of_t, cat.bialgebra_s))
        runs = {"identify": lambda: identify(d(), target(), phi,
                                             cat.supertrace_gram())}
    elif subject.startswith("double_of"):
        d = getattr(cat, subject)()
        form = _perturb_gram(rng, d.form, steps)
        moved = DoubleAlgebra(d.underlying, d.delta)
        moved.form = form
        target, phi = ((cat.bialgebra_f(), cat.double_s_identification())
                       if subject.endswith("s") else
                       (cat.bialgebra_s(), cat.double_t_identification()))
        runs = {
            "invariance": lambda: check_invariance(d.underlying, form),
            "identify": lambda: identify(moved, target, phi,
                                         cat.supertrace_gram()),
        }
    elif subject == "supertrace_gram":
        form = _perturb_gram(rng, cat.supertrace_gram(), steps)
        runs = {
            "invariance": lambda: check_invariance(cat.sl21(), form),
            "manin triple": lambda: check_manin_triple(ManinTriple(
                cat.sl21(), form, cat.s2_span(), cat.s1_span())),
            "identify": lambda: identify(
                cat.double_of_s(), cat.bialgebra_f(),
                cat.double_s_identification(), form),
        }
    else:
        t = getattr(cat, subject)()
        halves = {"plus": list(t.plus), "minus": list(t.minus)}
        half = rng.choice(sorted(halves))
        steps.append(half)
        _perturb_span(rng, halves[half], steps)
        runs = {"manin triple": lambda: check_manin_triple(ManinTriple(
            t.ambient, t.form, halves["plus"], halves["minus"]))}
    out = {}
    for name, run in runs.items():
        try:
            out[name] = [[c.name, c.passed, c.detail] for c in run().checks]
        except Exception as e:  # a raising check is recorded, whatever its class
            out[name] = {"raises": type(e).__name__, "message": str(e)}
    return "; ".join(steps), out


def map_inputs():
    """(id, description, {report: check lines}) for every map input."""
    for i in range(MAPPED):
        rng = random.Random(f"maps-{i}")
        subject = rng.choices(list(MAPS), list(MAPS.values()))[0]
        yield (f"m{i:03d}", *_map_reports(rng, subject))


def _hashed(doc: dict) -> dict:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def _hashed_or_raised(build, to_json) -> dict:
    """The hash of to_json(build()), or the exception build() raises."""
    try:
        return _hashed(to_json(build()))
    except Exception as e:  # every rejection is recorded, whatever its class
        return {"raises": type(e).__name__, "message": str(e)}


def restrict_outcome(b, sub) -> dict:
    """What `restrict` makes of the span: the hash of the restricted
    bialgebra, or the exception it raises."""
    from superbialg import restrict, serialize
    return _hashed_or_raised(lambda: restrict(b, sub),
                             serialize.bialgebra_to_json)


def dual_outcomes(b) -> dict:
    """What `dual_bracket` and `dual_bialgebra` make of b: each a hash of
    the dual, or the exception it raises."""
    from superbialg import dual_bialgebra, dual_bracket, serialize
    return {"dual_bracket": _hashed_or_raised(
                lambda: dual_bracket(b), serialize.superalgebra_to_json),
            "dual_bialgebra": _hashed_or_raised(
                lambda: dual_bialgebra(b), serialize.bialgebra_to_json)}


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
    """The lines of the five corpus files; `build_double.jsonl`,
    `verify.jsonl` and `dual.jsonl` come from one pass over the inputs."""
    out: dict[Path, list[str]] = {CORPUS: [], VERIFY_CORPUS: [],
                                  DUAL_CORPUS: []}
    for name, what, b in inputs():
        for path, result in ((CORPUS, outcome(b)), (VERIFY_CORPUS, reports(b)),
                             (DUAL_CORPUS, dual_outcomes(b))):
            out[path].append(_line(name, what, result))
    out[RESTRICT_CORPUS] = [_line(name, what, restrict_outcome(b, sub))
                            for name, what, b, sub in restrict_inputs()]
    out[MAPS_CORPUS] = [_line(name, what, result)
                        for name, what, result in map_inputs()]
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    for path, text in lines().items():
        path.write_text("\n".join(text) + "\n")
        print(f"wrote {path.name}")
