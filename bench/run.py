"""Benchmark of the superbialg package: three closed-loop workloads.

    python3 bench/run.py --workload paper|ladder|double|all \
        --seed N --seconds S --trace 0|1

Run from a checkout; the package is imported from its `src/`.  Each pass is
checked outside the timed region.  Human-readable lines come first; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`.  A per-layer metric that the workload
never reaches reads 0.  Spans and a full report go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_import(wl) -> float:
    """Drop the package from sys.modules, then import it and generate the
    workload's inputs; returns the seconds taken."""
    for name in [m for m in sys.modules if m.split(".")[0] == "superbialg"]:
        del sys.modules[name]
    t0 = perf_counter()
    wl.setup()
    dt = perf_counter() - t0
    import superbialg
    if not Path(superbialg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"superbialg imported from {superbialg.__file__}, "
                         f"not from {ROOT / 'src'}")
    return dt


class Tally:
    """Outputs attempted and failed; failures are counted, never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, results):
        for msg in results:
            self.attempted += 1
            if msg is not None:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(msg)


def measure(wl, seconds: float, tally: Tally, tracer: Tracer | None = None):
    """Closed loop: passes start until `seconds` have gone by, and at
    least one runs.  With a tracer, every untraced pass is followed by a
    traced one."""
    pass_s, rung_s = [], defaultdict(list)
    units = max(1, len(wl.rungs))
    deadline = perf_counter() + seconds
    while not pass_s or perf_counter() < deadline:
        wl.before_pass()
        t0 = perf_counter()
        payloads, rungs = wl.run_pass()
        pass_s.append(perf_counter() - t0)
        for dim, t in rungs.items():
            rung_s[dim].append(t)
        tally.add(wl.check(payloads))
        if tracer is not None:
            tracer.next_pass()
            wl.before_pass()
            try:
                tally.add(wl.check(wl.traced_pass(tracer)))
            except Exception as e:
                msg = f"traced pass raised {type(e).__name__}: {e}"
                tally.add([msg] * units)
    return pass_s, rung_s


def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile that has at least
    ten samples beyond it (none below 21 samples)."""
    xs = sorted(samples)
    n = len(xs)
    out = {"value": statistics.median(xs), "n": n}
    if n > 20:
        out["percentile"] = 100 * (n - 10) // n
        out["percentile_value"] = xs[n - 11]
    return out


def describe(name: str, m: dict) -> str:
    line = f"{name} = {m['value']:.6g} {m['unit']}"
    if "n" in m:
        line += f"  (median of {m['n']}"
        if "percentile" in m:
            line += f"; p{m['percentile']} = {m['percentile_value']:.6g}"
        line += ")"
    return line


def run_workload(args) -> int:
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup = [fresh_import(wl) for _ in range(wl.setup_repeats)]
        problems = wl.self_check()
        header = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)),
                  "commit": git_commit()}
        print("# " + "  ".join(f"{k}={v}" for k, v in header.items()))
        for msg in problems:
            print(f"# self-check failed: {msg}")

        tally = Tally()
        tracer = Tracer() if args.trace else None
        pass_s, rung_s = measure(wl, args.seconds, tally, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {
        "pass_s": {**summarize(pass_s), "unit": "s"},
        "setup_s": {**summarize(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "failed_share": {"value": tally.failed / tally.attempted,
                         "unit": "share"},
    }
    for dim in wl.rungs:
        metrics[f"d{dim}_s"] = {**summarize(rung_s[dim]), "unit": "s"}
    if tracer is not None:
        metrics.update(traced_metrics(tracer, spec, metrics))
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# spans: {spans_path.relative_to(ROOT)}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {}
    for m in wanted:
        if m["name"] in metrics:
            value = metrics[m["name"]]["value"]
        elif args.trace:
            value = 0  # this workload never reaches that layer call
        else:
            raise SystemExit(f"end-to-end metric {m['name']} was not measured")
        result[m["name"]] = {"value": value, "unit": m["unit"]}

    for name, m in sorted(metrics.items()):
        print(describe(name, m))
    idle = [m["name"] for m in wanted if m["name"] not in metrics]
    if idle:
        print("# not reached by this workload (reported as 0): "
              + " ".join(idle))
    for msg in tally.messages:
        print(f"# FAILED: {msg}")

    line = {"correct": tally.failed == 0 and not problems,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": result}
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report, "w") as fh:
        json.dump({"header": header, "metrics": metrics, "result": line,
                   "failures": tally.messages}, fh, indent=1)
    print(json.dumps(line))
    return 0


def traced_metrics(tracer: Tracer, spec: dict, untraced: dict) -> dict:
    """Per-layer medians over the traced passes, and the tracing overhead."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    per_pass = tracer.per_pass()
    names = sorted({k for values in per_pass.values() for k in values})
    out = {}
    for name in names:
        samples = [values.get(name, 0) for values in per_pass.values()]
        if units.get(name) == "count":
            out[name] = {"value": statistics.median_low(samples),
                         "n": len(samples), "unit": "count"}
        else:
            unit = units.get(name, "s" if name.endswith("_s") else "ms")
            out[name] = {**summarize(samples), "unit": unit}
    out["trace.untraced_pass_s"] = dict(untraced["pass_s"])
    out["trace.overhead_s"] = {
        "value": out["trace.pass_s"]["value"] - untraced["pass_s"]["value"],
        "unit": "s"}
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        sys.stdout.flush()
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
