"""``benchmarks/micro/meet.py`` runs at toy size and writes its records."""

import importlib.util
import json
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "micro" / "meet.py"


def _load():
    spec = importlib.util.spec_from_file_location("micro_meet", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _one_call_seconds(func):
    started = time.perf_counter()
    func()
    return time.perf_counter() - started


def test_micro_meet_writes_one_record_per_cell(tmp_path, monkeypatch, capsys):
    module = _load()
    monkeypatch.setattr(module, "REQUESTS", 10)
    monkeypatch.setattr(module, "STREAM_BATCHES", 10)
    monkeypatch.setattr(module, "_steady_seconds", _one_call_seconds)
    default_cap = module.queries.MEET_FRONTIER_CAP
    out = tmp_path / "micro.jsonl"
    assert module.main(["--nodes", "300", "--out", str(out)]) == 0
    records = [json.loads(line)
               for line in out.read_text(encoding="utf-8").splitlines()]
    printed = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert printed == records
    graphs = ("copying", "erdos_renyi", "erdos_renyi_dense")
    assert [(r["graph"], r["stream"], r["cap"]) for r in records] == [
        (graph, stream, cap) for graph in graphs
        for stream in module.STREAMS for cap in module.CAPS]
    for record in records:
        assert record["kernel"] == "pairs_that_can_meet"
        assert record["requests"] == 10
        assert 0 <= record["unmeetable_pairs"] <= record["walked_pairs"]
        assert record["test_ms_per_batch"] > 0
        assert record["simulate_ms_per_batch"] > 0
        assert 0 <= record["skipped_batches"] <= record["requests"]
    # A larger cap proves at least what a smaller one does, and its guard
    # skips at most the batches a smaller one's does.
    for graph in graphs:
        for stream in module.STREAMS:
            cells = [r for r in records
                     if (r["graph"], r["stream"]) == (graph, stream)]
            proven = [r["unmeetable_pairs"] for r in cells]
            assert proven == sorted(proven)
            skipped = [r["skipped_batches"] for r in cells]
            assert skipped == sorted(skipped, reverse=True)
            assert skipped[-1] == 0          # unbounded: never skipped
    # The dense graph's in-lists outgrow the default cap: the guard fires,
    # and a batch it skips is left whole to the walks.
    dense = module._graphs(300, 0)["erdos_renyi_dense"]
    assert any(r["skipped_batches"] for r in records
               if r["graph"] == "erdos_renyi_dense" and r["cap"] == 64)
    for sources, targets in module._walked_pairs(dense, "uniform_cold", 0):
        if module._skipped(dense, sources, targets):
            assert module.queries.pairs_that_can_meet(
                dense, sources, targets, module.PARAMS.walk_steps).all()
    # The sweep sets the cap per cell; the script must put it back.
    assert module.queries.MEET_FRONTIER_CAP == default_cap
