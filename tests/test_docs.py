"""The docs/ tree exists, is complete, and cites only refs that resolve.

Three layers of honesty checks:

* required documents exist and still cover the topics source docstrings
  cite them for;
* every path, ``module.symbol``, ``--flag``, knob-table and layer-box
  reference in the docs resolves (``scripts/check_docs.py``, also run
  standalone);
* every public symbol of the serving/persistence API surface carries a
  docstring.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS_DIR = REPO_ROOT / "docs"
CHECKER = REPO_ROOT / "scripts" / "check_docs.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsTree:
    def test_required_documents_exist(self):
        assert (DOCS_DIR / "DESIGN.md").is_file()
        assert (DOCS_DIR / "architecture.md").is_file()
        assert (REPO_ROOT / "README.md").is_file()

    def test_design_md_covers_contracted_topics(self):
        # Source docstrings cite docs/DESIGN.md for these topics; keep the
        # citations honest.
        text = (DOCS_DIR / "DESIGN.md").read_text(encoding="utf-8")
        for needle in ("ablat", "incremental", "index_walkers", "walk_steps",
                       "query_walkers", "jacobi", "Per-experiment index",
                       "affected-source"):
            assert needle in text, f"docs/DESIGN.md no longer covers {needle!r}"

    def test_architecture_md_covers_contracted_topics(self):
        text = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        for needle in ("graph", "core", "engine", "service", "cli",
                       "index_version", "Cache key", "invalidat", "snapshot"):
            assert needle in text, f"docs/architecture.md no longer covers {needle!r}"

    def test_readme_documents_live_updates(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "Updating a live index" in text
        assert "add_edges" in text
        assert "index_version" in text

    def test_sharding_and_operations_docs_exist_and_are_linked(self):
        assert (DOCS_DIR / "sharding.md").is_file()
        assert (DOCS_DIR / "operations.md").is_file()
        architecture = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for needle in ("sharding.md", "operations.md"):
            assert needle in architecture, f"architecture.md must link {needle}"
            assert needle in readme, f"README.md must link {needle}"

    def test_sharding_md_covers_contracted_topics(self):
        text = (DOCS_DIR / "sharding.md").read_text(encoding="utf-8")
        for needle in ("row task", "bitwise", "scatter-gather", "merge",
                       "rows[k::K]", "shard_plan.json", "critical path",
                       "Rebuild"):
            assert needle in text, f"docs/sharding.md no longer covers {needle!r}"

    def test_operations_md_covers_contracted_topics(self):
        text = (DOCS_DIR / "operations.md").read_text(encoding="utf-8")
        for needle in ("snapshot", "max_pending_edges", "cache_capacity",
                       "cache_memory_bytes", "from_snapshot", "monitor"):
            assert needle in text, f"docs/operations.md no longer covers {needle!r}"

    def test_readme_cli_help_block_is_current(self):
        """The README's regenerated help block must list every subcommand."""
        from repro.cli import build_parser

        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        subcommands = build_parser()._subparsers._group_actions[0].choices
        for name in subcommands:
            assert name in text, (
                f"README CLI help block is stale: subcommand {name!r} missing "
                "(regenerate with `python -m repro --help`)"
            )


class TestDocLinks:
    def test_every_cited_path_resolves(self):
        checker = _load_checker()
        problems = checker.check_docs()
        assert problems == [], "\n".join(problems)

    def test_checker_detects_dangling_reference(self, tmp_path, monkeypatch):
        # The checker itself must actually catch rot, not just pass.
        checker = _load_checker()
        docs = tmp_path / "docs"
        docs.mkdir()
        (tmp_path / "src").mkdir()
        (tmp_path / "README.md").write_text(
            "see [gone](docs/missing.md) and `src/not/there.py`\n"
        )
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        problems = checker.check_docs()
        assert len(problems) == 2

    def test_checker_detects_deleted_cli_flag(self, tmp_path, monkeypatch):
        """A flag that survives in prose after leaving the CLI is rot too."""
        checker = _load_checker()
        (tmp_path / "src").mkdir()
        (tmp_path / "README.md").write_text(
            "serve with `--shards 4` / `--cache-capacity 0`, never with "
            "`--no-resident-graph`; `pytest --benchmark-only` is not ours\n"
        )
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        problems = checker.check_docs()
        assert len(problems) == 1 and "--no-resident-graph" in problems[0]

    def test_checker_detects_a_stale_flag_choice(self, tmp_path, monkeypatch):
        """A flag value its argparse ``choices`` no longer allow is rot
        too, in a ``{a,b}`` list as well; free-valued flags are not checked."""
        checker = _load_checker()
        (tmp_path / "src").mkdir()
        (tmp_path / "README.md").write_text(
            "serve with `--serve-backend processes` or `--shard-backend "
            "{serial,processes}`, never with `--serve-backend threads` or "
            "`--shard-backend {serial,threads}`; `--shards 4` takes any K\n"
        )
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        problems = checker.check_docs()
        assert len(problems) == 2
        assert all("threads, which is no choice" in problem
                   and "processes, serial" in problem for problem in problems)
        assert "--serve-backend" in problems[0]
        assert "--shard-backend" in problems[1]

    def test_checker_detects_deleted_config_field(self, tmp_path, monkeypatch):
        """A knob-table row that outlives its config field is rot too."""
        checker = _load_checker()
        (tmp_path / "src").mkdir()
        (tmp_path / "README.md").write_text(
            "### Cache knobs (`ServiceParams`)\n\n"
            "| Knob | Default | Meaning |\n| --- | --- | --- |\n"
            "| `cache_capacity` | 1024 | LRU entries |\n"
            "| `max_batch_size` | 256 | Max sources per walk simulation |\n\n"
            "### Elsewhere\n\n| `not_a_knob` | prose table |\n"
        )
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        problems = checker.check_docs()
        assert len(problems) == 1 and "max_batch_size" in problems[0]

    def test_checker_detects_deleted_module_in_layer_box(self, tmp_path, monkeypatch):
        """A layer box that still lists a deleted module is rot too."""
        checker = _load_checker()
        package = tmp_path / "src" / "repro" / "engine"
        package.mkdir(parents=True)
        for module in ("__init__", "rdd", "cost_model"):
            (package / f"{module}.py").write_text("")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "architecture.md").write_text(
            "┌──────────────────────────────────┐\n"
            "│ engine  src/repro/engine/        │\n"
            "│   rdd (lazy) · accumulator       │\n"
            "│     continued · not split        │\n"
            "│   cost_model                     │\n"
            "├──────────────────────────────────┤\n"
            "│ cli     src/repro/cli.py         │\n"
            "│   not a package box              │\n"
            "└──────────────────────────────────┘\n"
        )
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        problems = checker.check_docs()
        assert len(problems) == 1 and "'accumulator'" in problems[0]

    def test_checker_cli_exit_codes(self):
        completed = subprocess.run(
            [sys.executable, str(CHECKER)], capture_output=True, text=True,
            cwd=str(REPO_ROOT),
        )
        assert completed.returncode == 0, completed.stderr
        assert "docs OK" in completed.stdout

    def test_checker_detects_broken_symbol_reference(self):
        """The symbol resolver must catch renamed attributes, not just paths."""
        checker = _load_checker()
        table = checker._public_symbol_table()
        assert checker._resolve_symbol("repro.service.QueryService.run_batch",
                                       table) is None
        assert checker._resolve_symbol("QueryService.run_batch", table) is None
        assert checker._resolve_symbol("ServiceParams.cache_capacity",
                                       table) is None
        # Dataclass fields without defaults still count as attributes.
        assert checker._resolve_symbol("DiagonalIndex.diagonal", table) is None
        # Foreign roots are skipped, never flagged.
        assert checker._resolve_symbol("np.ndarray", table) is None
        # Renamed/missing attributes are flagged on both root kinds.
        assert checker._resolve_symbol("repro.service.QueryService.run_batsch",
                                       table) is not None
        assert checker._resolve_symbol("QueryService.run_batsch", table) is not None
        assert checker._resolve_symbol("repro.core.gone_module.build", table) \
            is not None


class TestPublicDocstrings:
    """Every public symbol of the serving/persistence surface is documented."""

    MODULES = [
        "repro.service", "repro.service.service", "repro.service.sharded",
        "repro.service.batching", "repro.service.cache", "repro.service.http",
        "repro.service.coalesce", "repro.service.scenarios",
        "repro.core.index", "repro.core.sharding", "repro.core.queries",
        "repro.graph.partition",
    ]

    @pytest.mark.parametrize("module_name", MODULES)
    def test_public_symbols_have_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        missing = []
        if not inspect.getdoc(module):
            missing.append(module_name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue  # re-export; documented at its home
            if not inspect.getdoc(obj):
                missing.append(f"{module_name}.{name}")
            if inspect.isclass(obj):
                for member_name, member in vars(obj).items():
                    if member_name.startswith("_"):
                        continue
                    func = None
                    if inspect.isfunction(member):
                        func = member
                    elif isinstance(member, (classmethod, staticmethod)):
                        func = member.__func__
                    elif isinstance(member, property):
                        func = member.fget
                    if func is not None and not inspect.getdoc(func):
                        missing.append(f"{module_name}.{name}.{member_name}")
        assert missing == [], (
            "public symbols without docstrings: " + ", ".join(missing)
        )
