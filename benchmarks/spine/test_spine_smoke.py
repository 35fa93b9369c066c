"""Tier-1 smoke of the spine benchmark at toy size (a few seconds).

Runs the real command line — all four workloads untraced, one traced run
through the ``serve_traced.py`` child — and checks that what it emits is
exactly what ``BENCHMARK.json`` names, that the contract's limits hold, and
that nothing (shared memory, child processes) is left behind.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from targets import child_pids, shm_segments

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args, check=True):
    completed = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        cwd=str(ROOT), timeout=170)
    if check:
        assert completed.returncode == 0, completed.stdout + completed.stderr
    return completed


def _results(stdout):
    """The result objects: one JSON line per workload run."""
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contract_shape(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/spine"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(entry["why"]) <= 200 for entry in contract["workloads"])
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(entry for entry in contract["end_to_end"]
             if entry["name"] == "setup_s").items()


def test_toy_runs_emit_exactly_the_contract(contract, tmp_path):
    shm_before = shm_segments()
    children_before = set(child_pids(os.getpid()))
    out = tmp_path / "toy.jsonl"
    run_py = str(SPINE / "run.py")

    untraced = _results(_run(run_py, "--toy", "--workload", "all",
                             "--seconds", "0.5", "--trace", "0",
                             "--out", str(out)).stdout)
    assert len(untraced) == len(contract["workloads"]) == 4
    declared = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    for result in untraced:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: metric["unit"]
                for name, metric in result["metrics"].items()} == declared
        assert all(metric["value"] > 0 for metric in result["metrics"].values())

    (traced,) = _results(_run(run_py, "--toy", "--workload", "http_pool",
                              "--seconds", "0.4", "--trace", "1").stdout)
    assert traced["correct"] and traced["failed"] == 0
    assert {name: metric["unit"] for name, metric in traced["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in contract["per_layer"]}
    assert traced["metrics"]["service.sharded.run_batch_ms"]["value"] > 0
    assert traced["metrics"]["service.http.roundtrip_ms"]["value"] > 0
    assert traced["metrics"]["engine.executor.shm_residue"]["value"] == 0

    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [record["workload"] for record in records] == \
        [entry["name"] for entry in contract["workloads"]]
    for key in ("nproc", "load_average_1m_at_start", "python", "numpy",
                "scipy", "numba_importable", "git_sha", "segments"):
        assert key in records[0]["config"]
    compared = _run(str(SPINE / "compare.py"), str(out), str(out))
    assert "worse" not in compared.stdout.replace("verdict", "")
    assert compared.stdout.count(" ok") == 4 * len(declared)

    assert shm_segments() == shm_before
    assert set(child_pids(os.getpid())) == children_before


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail
    without printing a result."""
    bare = tmp_path / "benchmarks" / "spine"
    bare.mkdir(parents=True)
    for path in SPINE.glob("*.py"):
        (bare / path.name).write_bytes(path.read_bytes())
    completed = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--toy", "--workload",
         "zipf_hot", "--seconds", "0.2"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert completed.returncode != 0
    assert not _results(completed.stdout)
