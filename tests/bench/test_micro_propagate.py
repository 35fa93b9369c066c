"""``benchmarks/micro/propagate.py`` runs at toy size and writes its records."""

import importlib.util
import json
import time
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parents[2] / "benchmarks" / "micro"
          / "propagate.py")


def _load():
    spec = importlib.util.spec_from_file_location("micro_propagate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _one_call_seconds(func):
    started = time.perf_counter()
    func()
    return time.perf_counter() - started


def test_micro_propagate_writes_one_record_per_batch_size(tmp_path,
                                                          monkeypatch, capsys):
    module = _load()
    monkeypatch.setattr(module, "BATCHES", 2)
    monkeypatch.setattr(module, "_steady_seconds", _one_call_seconds)
    out = tmp_path / "micro.jsonl"
    assert module.main(["--nodes", "300", "--out", str(out)]) == 0
    records = [json.loads(line)
               for line in out.read_text(encoding="utf-8").splitlines()]
    printed = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert printed == records
    assert [r["sources_per_batch"] for r in records] == list(module.BATCH_SIZES)
    for record in records:
        assert record["kernel"] == "propagate_scores"
        assert record["batches"] == 2
        assert record["ms_per_batch"] > 0
        assert record["support_per_source"] >= 1
        assert len(record["scores_sha256"]) == 64
    # The answers are a pure function of graph, seed and parameters.
    module.main(["--nodes", "300"])
    again = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert ([r["scores_sha256"] for r in again]
            == [r["scores_sha256"] for r in records])
