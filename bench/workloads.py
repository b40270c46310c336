"""The benchmark's three workloads and its sl(m|n) input generator.

Every workload runs closed loop in its own process: one thread, one caller,
and each pass starts only after the previous one has finished.  A workload
object offers

* ``setup()``: import the package and generate the inputs (``setup_s``);
* ``before_pass()``: untimed preparation, such as clearing caches;
* ``run_pass()``: one pass through the public API or ``superbialg.cli.main``;
  returns one payload per output and the time of each rung;
* ``traced_pass(tr)``: the same work split into the calls of each layer,
  each under a span, plus untimed probes of single layers;
* ``check(payloads)``: one failure message (or None) per output.

The package is imported inside ``setup()`` only, so that the runner can
drop it from ``sys.modules`` and time a cold import on every repetition.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# sl(m|n) rungs of the ladder: dimension (m+n)^2 - 1
LADDER_RUNGS = ((2, 1), (3, 1), (3, 2))   # 8, 15, 24
DOUBLE_RUNGS = ((2, 1), (3, 1))           # 8, 15; their doubles are 16, 30
PAPER_FIXTURES = 70


def _nospan(name, dim=None):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

class SlInput:
    """Plain-data description of sl(m|n) by elementary matrices.

    Basis order: the Cartan elements h_i = E_ii -+ E_NN (i < N, sign chosen
    so the supertrace vanishes), then for each pair i < j the root vectors
    E_ij, E_ji.  For (2|1) this is exactly the catalog's sl(2,1) basis.
    """

    def __init__(self, m: int, n: int, scale=None):
        N = m + n
        self.m, self.n = m, n
        self.cartan = N - 1
        odd = [i >= m for i in range(N)]
        self.labels, self.parities, self.images = [], [], []

        def add(label, parity, entries):
            mat = [[0] * N for _ in range(N)]
            for (r, c), v in entries.items():
                mat[r][c] = v
            self.labels.append(label)
            self.parities.append(parity)
            self.images.append(mat)

        for i in range(N - 1):
            sign = -1 if odd[i] else 1
            add(f"E{i + 1}{i + 1}{'+' if sign == 1 else '-'}E{N}{N}", 0,
                {(i, i): 1, (N - 1, N - 1): sign})
        for i in range(N):
            for j in range(i + 1, N):
                parity = int(odd[i] != odd[j])
                add(f"E{i + 1}{j + 1}", parity, {(i, j): 1})
                add(f"E{j + 1}{i + 1}", parity, {(j, i): 1})
        if scale is not None:
            self.images = [[[s * x for x in row] for row in mat]
                           for s, mat in zip(scale, self.images)]

    @property
    def dim(self) -> int:
        return len(self.labels)

    def positive_root_pairs(self):
        """Basis index pairs (E_ij, E_ji) with i < j."""
        return [(k, k + 1) for k in range(self.cartan, self.dim, 2)]

    def realization(self):
        from superbialg import GradedBasis, MatrixRealization
        return MatrixRealization(GradedBasis(self.labels, self.parities),
                                 self.m, self.n, self.images)


def standard_r(inp: SlInput, omega):
    """The Cartan block of omega/2 plus the omega entries e_a (x) e_-a
    over the positive roots a."""
    from superbialg import Tensor2
    h = inp.cartan
    entries = {(i, j): c / 2 for (i, j), c in omega.entries.items()
               if i < h and j < h}
    for pos, neg in inp.positive_root_pairs():
        entries[(pos, neg)] = omega[(pos, neg)]
    return Tensor2(omega.left, omega.right, entries)


def seeded_scale(dim: int, seed: int) -> list[Fraction]:
    """One nonzero rational per basis vector, drawn from the seed.

    Numerators and denominators are the first 2 * dim odd primes, each used
    once, so no rescaled bracket constant can lose its denominator to
    cancellation.  The seed deals them out and picks the signs; keeping the
    set of primes fixed keeps the size of the arithmetic alike across seeds.
    """
    primes = [p for p in range(3, 400)
              if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    rng = random.Random(seed)
    chosen = rng.sample(primes[:2 * dim], 2 * dim)
    return [Fraction(rng.choice((1, -1)) * chosen[2 * i], chosen[2 * i + 1])
            for i in range(dim)]


def standard_bialgebra(inp: SlInput):
    """sl(m|n) with the cobracket of its standard r; unchecked."""
    from superbialg import (Bialgebra, casimir, coboundary_0,
                            from_matrices)
    real = inp.realization()
    g = from_matrices(real)
    omega = casimir(real, g)
    return Bialgebra(g, coboundary_0(g, standard_r(inp, omega)), check=False)


def self_check_generator() -> list[str]:
    """The (2|1) rung must reproduce the catalog's sl(2,1) and omega.

    (`catalog.r_standard` uses another convention and is not compared.)
    """
    from superbialg import catalog, casimir, from_matrices
    inp = SlInput(2, 1)
    real = inp.realization()
    g = from_matrices(real)
    problems = []
    if (g.basis != catalog.sl21_basis()
            or g.constants != catalog.sl21().constants):
        problems.append("generated sl(2|1) differs from catalog.sl21()")
    if casimir(real, g) != catalog.omega():
        problems.append("generated omega differs from catalog.omega()")
    return problems


def _failed_reports(reports) -> str | None:
    bad = [f"{name}: {rep.first_failure()}" for name, rep in reports
           if not rep.passed]
    return "; ".join(bad) if bad else None


def _capture_cli(argv) -> tuple[int, str]:
    from superbialg import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _raised(e: BaseException) -> str:
    return f"raised {type(e).__name__}: {e}"


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name = ""
    setup_repeats = 9
    rungs: tuple[int, ...] = ()   # input dimension of each output of a pass

    def __init__(self, seed: int, workdir: Path | None):
        self.seed = seed
        self.workdir = workdir

    def self_check(self) -> list[str]:
        return []

    def before_pass(self):
        pass

    def _timed(self, call, args):
        """call(arg) for each rung, timed one by one; an exception becomes
        that output's payload."""
        payloads, rung_s = [], {}
        for dim, arg in zip(self.rungs, args):
            t0 = perf_counter()
            try:
                payloads.append(call(arg))
            except (Exception, SystemExit) as e:
                payloads.append(e)
            rung_s[dim] = perf_counter() - t0
        return payloads, rung_s


# ---------------------------------------------------------------------------
# paper: a cold `superbialg verify paper`
# ---------------------------------------------------------------------------

class Paper(Workload):
    """`verify paper --format json` with every catalog cache cleared first."""

    name = "paper"

    def setup(self):
        from superbialg import catalog, cli, verify  # noqa: F401
        self.catalog = catalog
        self.caches = [f for f in vars(catalog).values()
                       if hasattr(f, "cache_clear")]
        self.constructors = [f for name, f in vars(catalog).items()
                             if hasattr(f, "cache_clear")
                             and not name.startswith("_")]
        self.sections = verify.SECTIONS
        self.run_fixtures = verify.run_fixtures

    def before_pass(self):
        for f in self.caches:
            f.cache_clear()
        warm = [f.__name__ for f in self.caches if f.cache_info().currsize]
        if warm:
            raise RuntimeError(f"catalog caches not cold: {warm}")

    def run_pass(self):
        try:
            payload = _capture_cli(["verify", "paper", "--format", "json"])
        except (Exception, SystemExit) as e:
            payload = e
        return [payload], {}

    def traced_pass(self, tr):
        with tr.span("pass"):
            with tr.span("catalog.cold_build"):
                for f in self.constructors:
                    f()
            results = []
            for sec in self.sections:
                with tr.span(f"verify.s{sec.replace('.', '_')}"):
                    results += self.run_fixtures(sec)
        tr.count("verify.fixtures", len(results))
        doc = {"passed": all(r.passed for r in results),
               "fixtures": [{"name": r.name, "passed": r.passed,
                             "detail": r.detail} for r in results]}
        return [(0 if doc["passed"] else 1, json.dumps(doc))]

    def check(self, payloads):
        (payload,) = payloads
        if isinstance(payload, BaseException):
            return [_raised(payload)]
        code, text = payload
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            return [f"stdout is not JSON: {e}"]
        fixtures = doc.get("fixtures", [])
        npass = sum(1 for f in fixtures if f.get("passed") is True)
        if code != 0 or npass != len(fixtures) or npass != PAPER_FIXTURES:
            return [f"exit {code}, {npass}/{len(fixtures)} fixtures pass"]
        return [None]


# ---------------------------------------------------------------------------
# ladder: the standard bialgebra of sl(m|n) at growing dimension
# ---------------------------------------------------------------------------

class Ladder(Workload):
    """Build sl(m|n) and its standard r from matrices, then check it.

    The inputs are fixed; the seed is recorded but changes nothing."""

    name = "ladder"

    def setup(self):
        import superbialg  # noqa: F401  (the import is part of set-up)
        self.inputs = [SlInput(m, n) for m, n in LADDER_RUNGS]
        self.rungs = tuple(inp.dim for inp in self.inputs)

    def self_check(self) -> list[str]:
        return self_check_generator()

    def _rung(self, inp: SlInput, span):
        import superbialg as sb
        d = inp.dim
        with span("algebra.MatrixRealization", d):
            real = inp.realization()
        with span("algebra.from_matrices", d):
            g = sb.from_matrices(real)
        with span("algebra.validate", d):
            axioms = g.validate()
        with span("bialgebra.casimir", d):
            omega = sb.casimir(real, g)
        with span("bench.standard_r", d):
            r = standard_r(inp, omega)
        with span("bialgebra.check_unitarity", d):
            unitary = sb.check_unitarity(r, omega)
        with span("cohomology.coboundary_0", d):
            delta = sb.coboundary_0(g, r)
        with span("cohomology.is_cocycle_1", d):
            cocycle = sb.is_cocycle_1(g, delta)
        with span("bialgebra.check_cojacobi", d):
            cojacobi = sb.check_cojacobi(g, delta)
        with span("bialgebra.check_compatibility", d):
            compatible = sb.check_compatibility(g, delta)
        reports = [("validate", axioms), ("unitarity", unitary),
                   ("cocycle", cocycle), ("cojacobi", cojacobi),
                   ("compatibility", compatible)]
        return reports, (real, g, omega, delta)

    def run_pass(self):
        return self._timed(lambda inp: self._rung(inp, _nospan)[0],
                           self.inputs)

    def traced_pass(self, tr):
        import superbialg as sb
        from superbialg.cohomology import canonical_tuples, coboundary
        from superbialg.graded import rank
        payloads, objects = [], []
        with tr.span("pass"):
            for inp in self.inputs:
                with tr.span("rung", inp.dim):
                    reports, objs = self._rung(inp, tr.span)
                payloads.append(reports)
                objects.append((inp, objs))
        # probes of single layers, outside the pass so that the traced
        # pass stays comparable with an untraced one
        with tr.span("probe"):
            for inp, (real, g, omega, delta) in objects:
                d = inp.dim
                columns = [[x for row in mat for x in row]
                           for mat in real.images]
                with tr.span("graded.rank", d):
                    rank(columns)
                with tr.span("graded.super_swap", d):
                    all(sb.super_swap(v) == v.scale(-1)
                        for v in delta.values.values())
                with tr.span("cohomology.coboundary", d):
                    coboundary(g, delta)
                tr.count("graded.omega_nnz", len(omega.entries), d)
                tr.count("graded.delta_nnz",
                         sum(len(v.entries) for v in delta.values.values()), d)
                tr.count("algebra.constants_nnz", len(g.constants), d)
                tr.count("cohomology.tuples",
                         len(canonical_tuples(g.basis, 2)), d)
        return payloads

    def check(self, payloads):
        out = []
        for inp, payload in zip(self.inputs, payloads):
            if isinstance(payload, BaseException):
                out.append(f"d{inp.dim}: {_raised(payload)}")
            else:
                bad = _failed_reports(payload)
                out.append(f"d{inp.dim}: {bad}" if bad else None)
        return out


# ---------------------------------------------------------------------------
# double: `superbialg double` on rescaled standard bialgebras
# ---------------------------------------------------------------------------

# one input document of `double`, and where the CLI writes its double
DoubleDoc = namedtuple("DoubleDoc", "dim path out doc")


class Double(Workload):
    """`superbialg double <doc> --out <file>` on the (2|1) and (3|1)
    standard bialgebras, every basis vector rescaled by a seeded rational."""

    name = "double"
    setup_repeats = 5

    def setup(self):
        from superbialg import serialize
        self.docs = []
        for m, n in DOUBLE_RUNGS:
            dim = SlInput(m, n).dim
            inp = SlInput(m, n, scale=seeded_scale(dim, self.seed))
            doc = serialize.bialgebra_to_json(standard_bialgebra(inp))
            path = str(self.workdir / f"sl{m}{n}-seed{self.seed}.json")
            serialize.dump(doc, path)
            # `--out` rather than `--format json`: the JSON on stdout is
            # preceded by report lines, an open input-contract defect
            # listed in ROADMAP.md.
            out = str(self.workdir / f"double-d{dim}.json")
            self.docs.append(DoubleDoc(dim, path, out, doc))
        self.rungs = tuple(d.dim for d in self.docs)

    def self_check(self) -> list[str]:
        """Every bracket constant of every document has a denominator."""
        problems = []
        for d in self.docs:
            dens = [t["den"] for br in d.doc["algebra"]["brackets"]
                    for t in br["terms"]]
            if not dens or "1" in dens:
                problems.append(f"d{d.dim}: a bracket constant is an integer")
        return problems

    def before_pass(self):
        for d in self.docs:  # no stale output can pass the check
            Path(d.out).unlink(missing_ok=True)

    def run_pass(self):
        return self._timed(
            lambda d: _capture_cli(["double", d.path, "--out", d.out]),
            self.docs)

    def traced_pass(self, tr):
        """The CLI path of `double`, one layer call at a time."""
        from superbialg import build_double, check_canonical_r, serialize
        from superbialg.algebra import check_invariance
        payloads, doubles = [], []
        with tr.span("pass"):
            for dim, path, out, _ in self.docs:
                with tr.span("rung", dim):
                    with tr.span("serialize.load", dim):
                        b = serialize.bialgebra_from_json(
                            serialize.load_file(path), check=False)
                    with tr.span("bialgebra.verify", dim):
                        loaded = b.verify()
                    with tr.span("double.build_double", dim):
                        dd = build_double(b)
                    with tr.span("algebra.validate", dim):
                        axioms = dd.underlying.validate()
                    with tr.span("serialize.dump", dim):
                        text = serialize.dump(serialize.double_to_json(dd),
                                              out)
                ok = loaded.passed and axioms.passed
                payloads.append((0 if ok else 1, ""))
                doubles.append((dim, b, dd, len(text)))
        with tr.span("probe"):
            for dim, b, dd, nbytes in doubles:
                with tr.span("algebra.check_invariance", dim):
                    check_invariance(dd.underlying, dd.form)
                with tr.span("double.check_canonical_r", dim):
                    check_canonical_r(dd)
                tr.count("algebra.constants_nnz", len(b.algebra.constants),
                         dim)
                tr.count("graded.delta_nnz", sum(
                    len(v.entries) for v in b.delta.values.values()), dim)
                tr.count("double.constants_nnz",
                         len(dd.underlying.constants), dim)
                tr.count("serialize.bytes", nbytes, dim)
        return payloads

    def check(self, payloads):
        from superbialg import check_canonical_r, serialize
        out = []
        for (dim, _, out_path, _), payload in zip(self.docs, payloads):
            if isinstance(payload, BaseException):
                out.append(f"d{dim}: {_raised(payload)}")
                continue
            code, text = payload
            if code != 0:
                out.append(f"d{dim}: exit {code}: {text.strip()[-300:]}")
                continue
            try:
                dd = serialize.double_from_json(
                    serialize.load_file(out_path))
            except (OSError, ValueError, KeyError, TypeError) as e:
                out.append(f"d{dim}: --out file does not reparse: {e}")
                continue
            if dd.underlying.dim() != 2 * dim:
                out.append(f"d{dim}: double has dimension "
                           f"{dd.underlying.dim()}, not {2 * dim}")
                continue
            rep = check_canonical_r(dd)
            out.append(None if rep.passed else
                       f"d{dim}: canonical r: {rep.first_failure()}")
        return out


WORKLOADS = {w.name: w for w in (Paper, Ladder, Double)}
