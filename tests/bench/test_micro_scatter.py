"""``benchmarks/micro/scatter.py`` runs at toy size and writes its records."""

import importlib.util
import json
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parents[2] / "benchmarks" / "micro"
          / "scatter.py")


def _load():
    spec = importlib.util.spec_from_file_location("micro_scatter", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_micro_scatter_writes_one_record_per_cell(tmp_path, monkeypatch,
                                                  capsys):
    module = _load()
    monkeypatch.setattr(module, "REPEATS", 1)
    monkeypatch.setattr(module, "GRID", ((200, 4), (100, 64)))
    default_grain = module.sharded.SCATTER_GRAIN
    out = tmp_path / "micro.jsonl"
    assert module.main(["--nodes", "300", "--out", str(out)]) == 0
    records = [json.loads(line)
               for line in out.read_text(encoding="utf-8").splitlines()]
    printed = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert printed == records
    assert [(r["walkers"], r["misses"]) for r in records] == list(module.GRID)
    for record in records:
        assert record["kernel"] == "simulate_misses"
        assert record["rule_runs"] == 1      # toy cells stay below the grain
        assert record["fastest"] in module.BACKENDS
        for backend in module.BACKENDS:
            assert record[f"{backend}_first_s"] > 0
            assert record[f"{backend}_s"] > 0
    # The timing lowers the grain; the script must put it back.
    assert module.sharded.SCATTER_GRAIN == default_grain
