"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The short runs take about a minute in total: one pass of each workload,
untraced and traced.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import (
    DOUBLE_RUNGS, Double, Paper, SlInput, seeded_scale, self_check_generator,
    standard_r,
)

SPEC = run.load_spec()


def test_generator_reproduces_catalog_sl21_and_omega():
    assert self_check_generator() == []


@pytest.mark.parametrize("m,n", DOUBLE_RUNGS)
def test_standard_r_is_unitary_cocycle_and_cojacobi(m, n):
    from superbialg import (casimir, check_cojacobi, check_unitarity,
                            coboundary_0, from_matrices, is_cocycle_1)
    inp = SlInput(m, n)
    real = inp.realization()
    g = from_matrices(real)
    omega = casimir(real, g)
    r = standard_r(inp, omega)
    delta = coboundary_0(g, r)
    assert check_unitarity(r, omega).passed
    assert is_cocycle_1(g, delta).passed
    assert check_cojacobi(g, delta).passed


def test_seeded_scale_is_a_function_of_the_seed():
    assert seeded_scale(15, 4) == seeded_scale(15, 4)
    assert seeded_scale(15, 4) != seeded_scale(15, 5)
    assert all(s.denominator > 1 for s in seeded_scale(15, 4))


def test_double_documents_have_rational_constants(tmp_path):
    wl = Double(7, tmp_path)
    wl.setup()
    assert wl.self_check() == []
    assert wl.rungs == (8, 15)


def test_paper_pass_starts_cold():
    wl = Paper(0, None)
    wl.setup()
    wl.catalog.sl21()
    wl.before_pass()
    assert all(f.cache_info().currsize == 0 for f in wl.caches)
    assert len(wl.constructors) > 40


def test_corrupted_document_is_counted_as_failed(tmp_path):
    wl = Double(3, tmp_path)
    wl.setup()
    wl.docs, wl.rungs = wl.docs[:1], wl.rungs[:1]
    path = wl.docs[0].path
    doc = json.loads(Path(path).read_text())
    term = doc["algebra"]["brackets"][0]["terms"][0]
    term["num"] = str(-int(term["num"]))  # flip one structure constant
    Path(path).write_text(json.dumps(doc))
    tally = run.Tally()
    run.measure(wl, 0, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "d8: exit 1" in tally.messages[0]


def _run(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def short_runs():
    """One pass (or one untraced and one traced pass) of every workload."""
    out = {}
    for workload in ("paper", "ladder", "double"):
        for trace in ("0", "1"):
            proc = _run(run.ROOT, "--workload", workload, "--seed", "11",
                        "--seconds", "0", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = proc.stdout
    return out


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
@pytest.mark.parametrize("workload", ["paper", "ladder", "double"])
def test_short_run_prints_every_metric_with_its_unit(short_runs, workload,
                                                     trace, kind):
    lines = short_runs[workload, trace].splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        value = result["metrics"][name]["value"]
        if kind == "end_to_end":
            assert value > 0
            assert any(line.startswith(f"{name} = ") and f" {unit}" in line
                       for line in lines)
    rungs = {"paper": (), "ladder": (8, 15, 24), "double": (8, 15)}
    for name in ["failed_share", *(f"d{d}_s" for d in rungs[workload])]:
        assert any(line.startswith(f"{name} = ") for line in lines), name
    assert any(line.startswith("failed_share = 0 share") for line in lines)
    assert lines[0].startswith(f"# workload={workload}  seed=11")
    for key in ("python=", "nproc=", "commit="):
        assert key in lines[0]


def test_every_per_layer_metric_is_reached_by_some_workload(short_runs):
    reached = set()
    for workload in ("paper", "ladder", "double"):
        result = json.loads(short_runs[workload, "1"].splitlines()[-1])
        reached |= {k for k, v in result["metrics"].items() if v["value"]}
        assert (run.OUT / f"spans-{workload}-seed11.jsonl").exists()
    # the overhead is a difference of two medians and may read exactly 0
    missing = {m["name"] for m in SPEC["per_layer"]} - reached
    assert missing <= {"trace.overhead_s"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in run.BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "bench")
    proc = _run(tmp_path, "--workload", "paper", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
