"""The mutation gate: one-line mutants of `src/superbialg` that tier-1 must kill.

    python tests/mutants.py [NAME ...]

With names, only those mutants run (after the unmutated run); an unknown
name exits 2 with an `error:` line before anything runs.  Each mutant names a file under `src/superbialg`, an exact old string, which
must occur there exactly once, and its replacement.  The runner first runs
tier-1 on an unmutated copy of `src/` (it must pass), then, for each
mutant, copies `src/` to a temporary directory, applies the mutant and runs
tier-1 on the copy with `pytest -x` under a time limit.  The mutated
module's own test file, `tests/test_<module>.py` where it exists, runs
first and the other test files after it, each once, so most mutants fall
to the first tests they meet; a mutant that only a later file kills names
that file as its `first`.  It prints one row per mutant, then the
count and the whole gate's time:

* `killed`: a test failed;
* `timeout`: the run passed the time limit, which counts as killed (a
  wrong coordinate can send a hypothesis search into a long shrink);
* `SURVIVED`: tier-1 passed on the mutant;
* `equivalent`: listed with the reason it cannot change behaviour; not run.

The exit status is 1 when a mutant that is not marked equivalent survives
or when an old string does not occur exactly once, and 0 otherwise.  The
time limit is twice the unmutated run plus 30 s, so a surviving
mutant, which runs the whole suite, finishes inside it.  This file is not
collected by tier-1 (its name does not match `test_*.py`), but
`tests/test_mutants.py` checks in tier-1 that every old string occurs
exactly once.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/superbialg
    old: str
    new: str
    equivalent: str | None = None  # the reason, for a mutant not run
    first: str | None = None  # the test file to run first, under tests/


MUTANTS = [
    # one-line mutants of the kernels and scans
    Mutant("proportional-keys", "graded.py",
           "return x.keys() == y.keys() and all(",
           "return all("),
    Mutant("antisymmetry-mirror-or", "algebra.py",
           "s = 1 if par[i] & par[j] else -1",
           "s = 1 if par[i] | par[j] else -1"),
    Mutant("grading-parity-of-first-index", "algebra.py",
           "if not row.keys() <= within[par[i] ^ par[j]]",
           "if not row.keys() <= within[par[i]]"),
    Mutant("jacobi-koszul-xy", "algebra.py",
           "rows[x], par[x] & par[z]",
           "rows[x], par[x] & par[y]", first="test_int_kernels.py"),
    # the Jacobi kernel, one sign and one index bound per rotation; for
    # these and the sum above, the kernel's tests on perturbed sl(m|n)
    # run first
    Mutant("jacobi-kernel-abc-koszul", "algebra.py",
           "y = -y if pa & par[c] else y",
           "y = -y if pa & par[b] else y", first="test_int_kernels.py"),
    Mutant("jacobi-kernel-abc-bound", "algebra.py",
           "                    if b >= a:\n"
           "                        y = -y",
           "                    if b > a:\n"
           "                        y = -y", first="test_int_kernels.py"),
    Mutant("jacobi-kernel-bca-koszul", "algebra.py",
           "yb = -y if par[b] & pa else y",
           "yb = -y if par[c] & pa else y", first="test_int_kernels.py"),
    Mutant("jacobi-kernel-bca-bound", "algebra.py",
           "if b > c:",
           "if b >= c:", first="test_int_kernels.py"),
    Mutant("jacobi-kernel-cab-koszul", "algebra.py",
           "yc = -y if par[c] & par[b] else y",
           "yc = -y if par[c] & pa else y", first="test_int_kernels.py"),
    Mutant("jacobi-kernel-cab-bound", "algebra.py",
           "if c >= b:",
           "if c > b:", first="test_int_kernels.py"),
    Mutant("verify-grading-no-mod", "bialgebra.py",
           "(par[i] + par[j]) % 2 == par[k]",
           "(par[i] + par[j]) == par[k]"),
    # the pairwise kernel: its pair set, and one Koszul sign and one index
    # bound per action side, e_a . f(e_b) at (a, b) = (z, y) and
    # e_b . f(e_a) at (a, b) = (y, z), and the Leibniz sign
    Mutant("kernel-always-sorted", "cohomology.py",
           "every = g._first_antisymmetry_failure is not None",
           "every = False", first="test_stored_table.py"),
    Mutant("pairwise-kernel-zy-koszul", "cohomology.py",
           "1 if par[z] & parity else -1",
           "1 if parity else -1"),
    Mutant("pairwise-kernel-yz-koszul", "cohomology.py",
           "-1 if par[z] & (parity ^ par[y]) else 1",
           "-1 if par[z] & parity else 1", first="test_int_kernels.py"),
    Mutant("pairwise-kernel-zy-bound", "cohomology.py",
           "(at_zy[y][0], at_zy[y][1] + at_yz[y][1])",
           "(at_zy[y][0], at_yz[y][1])"),
    Mutant("pairwise-kernel-yz-bound", "cohomology.py",
           "(at_zy[y][0], at_zy[y][1] + at_yz[y][1])",
           "(at_zy[y][0], at_zy[y][1])"),
    Mutant("pairwise-kernel-leibniz-koszul", "cohomology.py",
           "(z, k, -c if par[z] else c)",
           "(z, k, c)", first="test_int_kernels.py"),
    Mutant("canonical-tuple-repeated-even", "cohomology.py",
           "return None, 0",
           "pass"),
    Mutant("span-coordinates-no-rebuild", "graded.py",
           "if _combine(vecs, coords) != {",
           "if False and _combine(vecs, coords) != {"),
    Mutant("f-equation-detail-scale", "bialgebra.py",
           "scale = e ** 3 * g.int_table[0]",
           "scale = e ** 2 * g.int_table[0]"),
    Mutant("homomorphism-detail-scale", "algebra.py",
           "_over(lhs, sl))} but ",
           "_over(lhs, 2 * sl))} but "),
    Mutant("cobracket-detail-scale", "bialgebra.py",
           "_over(lhs, sl))} != ",
           "_over(lhs, 2 * sl))} != "),
    Mutant("cojacobi-detail-scale", "bialgebra.py",
           "_over(acc, den * den)",
           "_over(acc, den)"),
    Mutant("span-coordinates-no-denominator", "graded.py",
           "Fraction(c, span[2] * d)",
           "Fraction(c, span[2])"),
    # the dual and the double
    Mutant("exchange-no-koszul", "bialgebra.py",
           "-c if par[i] and par[j] else c",
           "c"),
    Mutant("double-mixed-mirror-sign", "double.py",
           "table[j][n + i][k] = -koszul(par(i), par(j)) * c",
           "table[j][n + i][k] = koszul(par(i), par(j)) * c"),
    Mutant("grading-detail-character", "bialgebra.py",
           "{lab[j]} -> {lab[k]}",
           "{lab[j]} => {lab[k]}"),
    # the sparse elimination kernel and its callers
    Mutant("rref-step-swapped", "graded.py",
           "a, b = pv // g, row[c] // g",
           "b, a = pv // g, row[c] // g"),
    Mutant("solve-f-omega-untransposed", "bialgebra.py",
           "omega_t[j][i] = c",
           "omega_t[i][j] = c"),
    Mutant("invert-matrix-no-singular-check", "graded.py",
           "    if span is None:\n"
           "        raise ValueError(\"matrix is singular\")\n",
           ""),
    Mutant("rref-pivot-sign-kept", "graded.py",
           "x // (h if sign > 0 else -h)",
           "x // h"),
    Mutant("factor-span-tag-negated", "graded.py",
           "{~t: x * (q // row[k])",
           "{-t: x * (q // row[k])"),
    Mutant("factor-span-q-max-pivot", "graded.py",
           "q, s = lcm(*(row[k]",
           "q, s = max(*(row[k]", first="test_span_coordinates.py"),
    Mutant("span-equal-no-basis-check", "graded.py",
           "_same_basis(e.basis, both[0].basis)",
           "pass"),
    # the integer tables of from_half_table, from_matrices and gram_matrix
    Mutant("half-table-mirror-no-koszul", "algebra.py",
           "{k: x if keep else -x for k, x in rs[j].items()}",
           "{k: -x for k, x in rs[j].items()}"),
    Mutant("from-matrices-denominator-no-e", "algebra.py",
           "span[2] * real.den, num, half=True",
           "span[2], num, half=True"),
    Mutant("gram-matrix-over-e", "algebra.py",
           "real.sparse, real.den ** 2",
           "real.sparse, real.den", first="test_stored_table.py"),
    # one check, in one place
    Mutant("validate-antisymmetry-passes", "algebra.py",
           'rep.add("super antisymmetry", failure is None, failure)',
           'rep.add("super antisymmetry", True, failure)'),
    Mutant("r-of-f-legs-swapped", "bialgebra.py",
           "tensor(f.images[i], omega.basis.vector(j))",
           "tensor(omega.basis.vector(j), f.images[i])"),
    Mutant("half-table-zero-index-unchecked", "algebra.py",
           "            _check_index(len(basis), (i, j, k))\n"
           "            c = c if type(c) is int else as_scalar(c)\n"
           "            if c == 0:\n"
           "                continue\n",
           "            c = c if type(c) is int else as_scalar(c)\n"
           "            if c == 0:\n"
           "                continue\n"
           "            _check_index(len(basis), (i, j, k))\n",
           first="test_stored_table.py"),
    # one span-closure scan for is_subalgebra and restrict, the fixture
    # rule of verify paper, the integer rank of a form
    Mutant("subalgebra-closure-no-none-test", "algebra.py",
           "return all(coords is not None for",
           "return all(True for"),
    Mutant("restrict-closure-no-none-test", "bialgebra.py",
           "        if coords is None:\n"
           "            raise NotClosedUnderCobracket(",
           "        if False:\n"
           "            raise NotClosedUnderCobracket("),
    Mutant("fixture-none-passes", "verify.py",
           "passed = out.passed if report else out is True",
           "passed = out.passed if report else out is True or out is None"),
    Mutant("nondegenerate-rank-off-by-one", "algebra.py",
           "return len(rref(self.int_gram[1], range(n))[1]) == n",
           "return len(rref(self.int_gram[1], range(n))[1]) >= n - 1"),
    # cochains hold values in g (x) g
    Mutant("pairwise-action-side-no-koszul", "cohomology.py",
           "_act_into(rhs, g, a, f[b], koszul(par[a], parity))",
           "_act_into(rhs, g, a, f[b], 1)"),
    Mutant("set-value-no-rank-check", "cohomology.py",
           "        if val.rank != 2:\n"
           "            raise ValueError(f\"a cochain value has rank 2, "
           "not {val.rank}\")\n",
           ""),
    Mutant("canonical-r-counts-equal-values", "double.py",
           "dr.values.get(a) != d.delta.values.get(a)",
           "dr.values.get(a) == d.delta.values.get(a)"),
    Mutant("double-primal-dim-unchecked", "serialize.py",
           "    if 2 * n != len(par) or par[:n] != par[n:]:\n"
           "        raise SchemaError(",
           "    if False:\n"
           "        raise SchemaError("),
    Mutant("double-dual-labels-unchecked", "serialize.py",
           '    if lab[n:] != tuple(x + "*" for x in lab[:n]):',
           "    if False:"),
    # the pairing and the canonical r a double derives from its basis
    Mutant("double-pairing-no-sign", "double.py",
           "gram[i][n + i] = Q(koszul(basis.parity(i), basis.parity(i)))",
           "gram[i][n + i] = Q(1)"),
    Mutant("double-r-dual-index", "double.py",
           "{(i, n + i): Q(1) for i in range(n)}",
           "{(i, i): Q(1) for i in range(n)}"),
    # the JSON writer
    Mutant("writer-unsorted-keys", "serialize.py",
           "for k in sorted(obj)",
           "for k in obj"),
    Mutant("writer-colon-without-space", "serialize.py",
           '_quote(k) + ": " + ',
           '_quote(k) + ":" + '),
    Mutant("writer-one-space-indent", "serialize.py",
           'inner = pad + "  "',
           'inner = pad + " "'),
    # the canonical tuples, Im(f - 1) and the f-equation's map g -> g
    Mutant("canonical-tuples-even-repeats-kept", "cohomology.py",
           "if all(a != b or par[a] for",
           "if all(a <= b or par[a] for"),
    Mutant("f-minus-one-plus", "verify.py",
           "span_equal([im - v for im, v in zip(",
           "span_equal([im + v for im, v in zip("),
    Mutant("f-equation-no-target-check", "bialgebra.py",
           "    _same_basis(f.target, g.basis)\n",
           ""),
]


def test_files(first: Path | None = None) -> list[str]:
    """Every tier-1 test file once, `first` (if given) ahead of the rest.

    The files are listed one by one: given a file and a directory that
    holds it, pytest runs the file once, in the directory's order."""
    files = sorted((ROOT / "tests").rglob("test_*.py"))
    return [str(p) for p in ([first] if first else [])
            + [p for p in files if p != first]]


def tier1(src: Path, timeout: float | None,
          first: Path | None = None) -> tuple[str, float, str]:
    """Run tier-1 with -x on the package under `src`, the test file `first`
    ahead of the others; returns (outcome, seconds, the first failing test
    or the tail of the output)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *test_files(first)]
    start = time.monotonic()
    # the working directory holds hypothesis's example database
    with tempfile.TemporaryDirectory() as cwd:
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return "timeout", time.monotonic() - start, ""
    seconds = time.monotonic() - start
    if done.returncode == 0:
        return "passed", seconds, ""
    failed = re.search(r"^(?:FAILED|ERROR) (?:\S*?/)?(tests/\S+)", done.stdout,
                       re.M)
    tail = done.stdout.strip().splitlines()[-1:] or [done.stderr.strip()]
    return "failed", seconds, failed.group(1) if failed else tail[0]


def mutated_copy(mutant: Mutant, into: Path) -> Path:
    """A copy of src/ under `into` with the mutant applied."""
    src = into / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "superbialg" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: the old string occurs {count} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))
    return src


def select(names: list[str]) -> list[Mutant]:
    """The mutants with these names, in this order; every mutant for none.
    Raises ValueError naming each unknown name."""
    by_name = {m.name: m for m in MUTANTS}
    unknown = [x for x in names if x not in by_name]
    if unknown:
        raise ValueError(f"no mutant named {', '.join(unknown)}")
    return [by_name[x] for x in names] if names else MUTANTS


def main(argv: list[str]) -> int:
    try:
        chosen = select(argv)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    start = time.monotonic()
    outcome, seconds, where = tier1(ROOT / "src", None)
    print(f"{'unmutated':34} {outcome:10} {seconds:6.1f}s {where}", flush=True)
    if outcome != "passed":
        print("tier-1 fails without a mutant; nothing to measure")
        return 1
    timeout = 2 * seconds + 30

    bad = 0
    for m in chosen:
        if m.equivalent:
            print(f"{m.name:34} {'equivalent':10} {'':7} {m.equivalent}")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            try:
                src = mutated_copy(m, Path(tmp))
            except ValueError as e:
                print(f"{m.name:34} {'BAD':10} {'':7} {e}", flush=True)
                bad += 1
                continue
            first = ROOT / "tests" / (m.first
                                      or f"test_{Path(m.file).stem}.py")
            outcome, seconds, where = tier1(
                src, timeout, first if first.exists() else None)
        result = {"failed": "killed", "passed": "SURVIVED"}.get(outcome,
                                                                 outcome)
        bad += result == "SURVIVED"
        print(f"{m.name:34} {result:10} {seconds:6.1f}s {where}", flush=True)
    print(f"{len(chosen)} mutants, {bad} survived or unusable, "
          f"{time.monotonic() - start:.0f}s in all")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
