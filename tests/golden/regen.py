"""Golden outputs of the `superbialg` command on committed input documents.

    PYTHONPATH=src python tests/golden/regen.py

re-runs every case below through `superbialg.cli.main` and rewrites its
stdout (`<case>.out`) and, for `--out`, the file the case names in this
directory.  `tests/test_golden.py` runs the same cases and compares
every byte.  The documents under `inputs/` were written once from
`superbialg.catalog` and, for `sl21-seed1.json`, from the seed-1 (2|1)
input of the benchmark's `double` workload; this script never rewrites
them.  A change that alters a golden file on purpose lists that file, and
why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

# (case name, CLI arguments, the `--out` file name or None).  An argument
# ending in ".json" names a document under inputs/; the `--out` name is
# relative to the working directory.
CASES: list[tuple[str, list[str], str | None]] = [
    ("verify-paper", ["verify", "paper"], None),
    ("verify-paper-json", ["verify", "paper", "--format", "json"], None),
    ("double-sl21-seed1", ["double", "sl21-seed1.json", "--out"],
     "double-sl21-seed1.json"),
    ("cocommutator-r-f", ["cocommutator", "sl21.json", "--r", "r-f.json"],
     None),
    ("cocommutator-r-f-json", ["cocommutator", "sl21.json", "--r", "r-f.json",
                               "--format", "json"], None),
    ("restrict-s1-json", ["restrict", "sl21-delta-f.json",
                          "--span", "s1-span.json", "--format", "json"], None),
]
for _alg in ("sl21", "s", "t"):
    CASES += [(f"validate-{_alg}", ["validate", f"{_alg}.json"], None),
              (f"validate-{_alg}-json",
               ["validate", f"{_alg}.json", "--format", "json"], None)]
for _bi in ("sl21-delta-f", "sl21-delta-s", "s-delta-1", "s-delta-2",
            "t-delta-1", "t-delta-2"):
    CASES += [(f"dual-{_bi}", ["dual", f"{_bi}.json"], None),
              (f"dual-{_bi}-json", ["dual", f"{_bi}.json", "--format", "json"],
               None)]
# `--out` gets the document `--format json` prints, in text mode too: its
# file is the stdout of the json case
CASES.append(("dual-s-delta-1-out", ["dual", "s-delta-1.json", "--out"],
              "dual-s-delta-1-json.out"))
for _tr in ("s", "t"):
    CASES += [(f"manin-{_tr}", ["manin", f"manin-{_tr}.json"], None),
              (f"manin-{_tr}-json",
               ["manin", f"manin-{_tr}.json", "--format", "json"], None)]


def run_case(args: list[str], out: str | None) -> tuple[int, str]:
    """Exit code and stdout of one case, run in the working directory."""
    from superbialg.cli import main
    argv = [str(INPUTS / a) if a.endswith(".json") else a for a in args]
    if out is not None:
        argv.append(out)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def regenerate() -> None:
    os.chdir(HERE)
    for name, args, out in CASES:
        code, text = run_case(args, out)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (HERE / f"{name}.out").write_text(text)
        print(f"wrote {name}.out" + (f" and {out}" if out else ""))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    regenerate()
