"""The serving side and the Spark simulator load none of each other, and
the graph layer never loads the core.

``repro.service`` and the sharded build take exactly one module from
``repro.engine`` — ``executor`` (backends and the resident registry) — and
none of the reproduction-side core modules (the ``CloudWalker`` facade, the
paper's two execution models, the local diagonal estimator).  The
simulator (``repro.engine.context`` and what it runs) runs its tasks in
process, so it loads neither ``executor`` nor any ``repro.service`` module.
``repro.graph`` — the CSR frontier gather included — sits below
``repro.core`` and imports none of it.  The serving package and the CLI
load no HTTP client: the HTTP tier is a server, and the replay driver runs
in process.  Each check runs in a fresh
interpreter, because this test session has long since imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SERVING_MODULES = ("repro.service", "repro.service.http", "repro.core.sharding")
REPRODUCTION_CORE = ("repro.core.cloudwalker", "repro.core.broadcast_impl",
                     "repro.core.rdd_impl", "repro.core.diagonal")


def _loaded_after_importing(modules):
    script = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=60,
                               check=True)
    return set(json.loads(completed.stdout))


def test_serving_imports_stop_at_engine_executor():
    loaded = _loaded_after_importing(SERVING_MODULES)
    engine = {name for name in loaded if name.startswith("repro.engine.")}
    assert engine == {"repro.engine.executor"}
    assert not loaded & set(REPRODUCTION_CORE)


def test_the_simulator_loads_no_executor_and_no_service():
    loaded = _loaded_after_importing(["repro.engine.context", "repro.core.rdd_impl"])
    assert "repro.core.rdd_impl" in loaded
    assert "repro.engine.executor" not in loaded
    assert not {name for name in loaded if name.startswith("repro.service")}


@pytest.mark.parametrize("first", ["repro.service.sharded",
                                   "repro.service.service",
                                   "repro.service.http"])
def test_each_serving_module_imports_first_without_a_cycle(first):
    """``service.py`` imports the miss scatter from ``sharded.py``, never the
    reverse: whichever serving module a fresh interpreter imports first, the
    import completes."""
    assert first in _loaded_after_importing([first])


def test_the_graph_layer_loads_no_core_module():
    loaded = _loaded_after_importing(["repro.graph", "repro.graph.frontier"])
    assert "repro.graph.frontier" in loaded
    assert not {name for name in loaded if name.startswith("repro.core")}


def test_serving_and_the_cli_load_no_http_client():
    loaded = _loaded_after_importing(["repro.service", "repro.cli"])
    assert "repro.service.scenarios" in loaded
    assert "http.client" not in loaded


def test_service_exports_resolve_and_name_one_replay_driver():
    import repro.service as service

    assert [name for name in service.__all__
            if not hasattr(service, name)] == []
    assert [name for name in service.__all__
            if name.lower().startswith("replay")] == ["replay_trace"]
