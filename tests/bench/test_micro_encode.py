"""``benchmarks/micro/encode.py`` runs at toy size and writes its record."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "micro" / "encode.py"


def _load():
    spec = importlib.util.spec_from_file_location("micro_encode", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_micro_encode_writes_one_record(tmp_path, monkeypatch, capsys):
    module = _load()
    monkeypatch.setattr(module, "REPEATS", 1)
    out = tmp_path / "micro.jsonl"
    assert module.main(["--nodes", "300", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert json.loads(capsys.readouterr().out) == record
    assert record["kernel"] == "render_query_body"
    assert len(record["sources"]) == len(record["support"]) == module.SOURCES
    for key in ("render_first_s", "json_dumps_first_s", "render_s",
                "json_dumps_s"):
        assert record[key] > 0
