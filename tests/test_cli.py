"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.config import ShardingParams
from repro.core.index import SnapshotStore
from repro.graph import generators
from repro.graph import io as graph_io


def run_cli(*argv):
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


def _single_shard_answer_lines(graph_file, index_path, lines):
    """The CLI's answer lines, computed by an in-process ``QueryService``."""
    from repro.cli import _format_answer
    from repro.service import QueryService, parse_query

    graph = graph_io.read_edge_list(graph_file, relabel=False)
    queries = [parse_query(line) for line in lines]
    with QueryService.from_index_file(graph, index_path) as reference:
        answers = reference.run_batch(queries)
    return [_format_answer(query, answer)
            for query, answer in zip(queries, answers)]


@pytest.fixture()
def graph_file(tmp_path):
    graph = generators.copying_model_graph(80, out_degree=5, seed=17)
    path = tmp_path / "graph.tsv"
    graph_io.write_edge_list(graph, path)
    return path


@pytest.fixture()
def indexed(tmp_path, graph_file):
    index_path = tmp_path / "index.npz"
    code, _ = run_cli(
        "index", "--graph", str(graph_file), "--output", str(index_path),
        "--walkers", "50", "--query-walkers", "200", "--steps", "5",
    )
    assert code == 0
    return graph_file, index_path


class TestDatasetsAndGenerate:
    def test_datasets_lists_paper_entries(self):
        code, output = run_cli("datasets")
        assert code == 0
        for name in ("wiki-vote", "clue-web"):
            assert name in output

    def test_generate_edge_list(self, tmp_path):
        out = tmp_path / "generated.tsv"
        code, output = run_cli(
            "generate", "--model", "copying", "--nodes", "120",
            "--degree", "5", "--output", str(out),
        )
        assert code == 0
        assert out.exists()
        assert "120 nodes" in output

    def test_generate_binary(self, tmp_path):
        out = tmp_path / "generated.npz"
        code, _ = run_cli("generate", "--model", "power-law", "--nodes", "100",
                          "--degree", "4", "--output", str(out))
        assert code == 0
        assert graph_io.load_binary(out).n_nodes == 100

    def test_generate_unknown_model(self, tmp_path):
        code, output = run_cli("generate", "--model", "hyperbolic", "--nodes", "10",
                               "--output", str(tmp_path / "x.tsv"))
        assert code == 2
        assert "unknown model" in output


class TestStatsIndexValidateQuery:
    def test_stats_from_file(self, graph_file):
        code, output = run_cli("stats", "--graph", str(graph_file))
        assert code == 0
        assert "n_edges" in output

    def test_stats_from_dataset(self):
        code, output = run_cli("stats", "--dataset", "wiki-vote")
        assert code == 0
        assert "wiki-vote" in output

    def test_stats_requires_graph_or_dataset(self):
        code, output = run_cli("stats")
        assert code == 1
        assert "error" in output

    def test_index_and_query_pair(self, indexed):
        graph_file, index_path = indexed
        code, output = run_cli(
            "query", "pair", "--graph", str(graph_file), "--index", str(index_path),
            "--source", "3", "--target", "9",
        )
        assert code == 0
        assert "s(3, 9)" in output

    def test_query_pair_requires_target(self, indexed):
        graph_file, index_path = indexed
        code, output = run_cli(
            "query", "pair", "--graph", str(graph_file), "--index", str(index_path),
            "--source", "3",
        )
        assert code == 2
        assert "--target" in output

    def test_query_source_and_topk(self, indexed):
        graph_file, index_path = indexed
        code, output = run_cli(
            "query", "source", "--graph", str(graph_file), "--index", str(index_path),
            "--source", "5",
        )
        assert code == 0
        assert "single-source" in output
        code, output = run_cli(
            "query", "topk", "--graph", str(graph_file), "--index", str(index_path),
            "--source", "5", "--k", "3",
        )
        assert code == 0
        assert output.count("node") >= 3

    def test_one_off_queries_match_query_batch(self, indexed, tmp_path):
        """``query`` and ``query-batch`` both answer at the parameters
        stored in the index and read the same per-source streams, so on
        the same graph and index they print the same scores — repeated
        one-off calls included, with no parameter flag passed."""
        graph_file, index_path = indexed
        common = ("--graph", str(graph_file), "--index", str(index_path))
        one_off = []
        for argv in (("pair", "--source", "3", "--target", "9"),
                     ("pair", "--source", "3", "--target", "9"),
                     ("source", "--source", "5"),
                     ("topk", "--source", "5", "--k", "4")):
            code, output = run_cli("query", *argv, *common)
            assert code == 0
            one_off.append(output.splitlines())
        queries = tmp_path / "queries.txt"
        queries.write_text("pair 3 9\nsource 5\ntopk 5 4\n")
        code, output = run_cli(
            "query-batch", "--graph", str(graph_file), "--index", str(index_path),
            "--queries", str(queries),
        )
        assert code == 0
        batch = output.splitlines()
        pair_line = next(line for line in batch if line.startswith("s(3, 9)"))
        assert one_off[0] == one_off[1] == [pair_line]
        source_line = next(line for line in batch if line.startswith("source 5"))
        assert one_off[2][0].endswith(source_line.split(": ", 1)[1])
        topk_line = next(line for line in batch if line.startswith("topk 5"))
        ranked = [(fields[2], fields[4]) for fields in map(str.split, one_off[3])]
        assert len(ranked) == 4
        assert topk_line.split(": ", 1)[1] == " ".join(
            f"{node}={score}" for node, score in ranked)

    def test_validate(self, indexed):
        graph_file, index_path = indexed
        code, output = run_cli(
            "validate", "--graph", str(graph_file), "--index", str(index_path),
            "--spot-checks", "5",
        )
        assert code == 0
        assert "OK" in output

    def test_validate_wrong_graph(self, indexed, tmp_path):
        _graph_file, index_path = indexed
        other = generators.cycle_graph(12)
        other_path = tmp_path / "other.tsv"
        graph_io.write_edge_list(other, other_path)
        code, output = run_cli(
            "validate", "--graph", str(other_path), "--index", str(index_path),
        )
        assert code == 1
        assert "FAILED" in output

    def test_index_broadcasting_mode(self, tmp_path, graph_file):
        from repro.core.index import DiagonalIndex

        diagonals = {}
        for mode in ("broadcasting", "local"):
            index_path = tmp_path / f"{mode}-index.npz"
            code, output = run_cli(
                "index", "--graph", str(graph_file), "--output", str(index_path),
                "--mode", mode, "--walkers", "30", "--steps", "4",
            )
            assert code == 0
            assert ("'broadcasting' execution model" in output) == (
                mode == "broadcasting")
            diagonals[mode] = DiagonalIndex.load(index_path).diagonal
        # The broadcast model writes the local index byte for byte.
        assert diagonals["broadcasting"].tobytes() == diagonals["local"].tobytes()


class TestQueryBatchAndServe:
    def test_query_batch_from_file(self, indexed, tmp_path):
        graph_file, index_path = indexed
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "pair 3 9\npair 9 3\n# comment line\n\nsource 5\ntopk 5 3\n"
        )
        code, output = run_cli(
            "query-batch", "--graph", str(graph_file), "--index", str(index_path),
            "--queries", str(queries),
        )
        assert code == 0
        assert "s(3, 9)" in output and "s(9, 3)" in output
        assert "source 5" in output and "topk 5" in output
        assert "answered 4 queries" in output
        assert "deduplicated" in output

    def test_query_batch_symmetric_pair_answers_match(self, indexed, tmp_path):
        graph_file, index_path = indexed
        queries = tmp_path / "queries.txt"
        queries.write_text("pair 3 9\npair 9 3\n")
        code, output = run_cli(
            "query-batch", "--graph", str(graph_file), "--index", str(index_path),
            "--queries", str(queries),
        )
        assert code == 0
        forward = [line for line in output.splitlines() if line.startswith("s(3, 9)")]
        backward = [line for line in output.splitlines() if line.startswith("s(9, 3)")]
        assert forward[0].split("=")[1] == backward[0].split("=")[1]

    def test_query_batch_empty_file(self, indexed, tmp_path):
        graph_file, index_path = indexed
        queries = tmp_path / "queries.txt"
        queries.write_text("# nothing but comments\n")
        code, output = run_cli(
            "query-batch", "--graph", str(graph_file), "--index", str(index_path),
            "--queries", str(queries),
        )
        assert code == 2
        assert "no queries" in output

    def test_query_batch_malformed_line(self, indexed, tmp_path):
        graph_file, index_path = indexed
        queries = tmp_path / "queries.txt"
        queries.write_text("pair 3\n")
        code, output = run_cli(
            "query-batch", "--graph", str(graph_file), "--index", str(index_path),
            "--queries", str(queries),
        )
        assert code == 1
        assert "malformed" in output

    def test_serve_loop(self, indexed, monkeypatch):
        import io as io_module
        import sys

        graph_file, index_path = indexed
        monkeypatch.setattr(
            sys, "stdin",
            io_module.StringIO("pair 3 9\npair 3 9\nbad query\nstats\nquit\n"),
        )
        code, output = run_cli(
            "serve", "--graph", str(graph_file), "--index", str(index_path),
        )
        assert code == 0
        assert output.count("s(3, 9)") == 2
        assert "error: malformed query" in output
        assert "served 2 queries" in output
        # The second identical query was a cache hit.
        assert "hit rate 50.00%" in output

    def test_serve_loop_keyboard_interrupt_is_a_clean_shutdown(
            self, indexed, monkeypatch):
        """Ctrl-C mid-session must not unwind with a traceback: the REPL
        prints its shutdown line, still reports stats, and exits 0 (the
        ``finally`` close releases pools exactly once)."""
        import sys

        class _InterruptedStdin:
            def __init__(self, lines):
                self._lines = iter(lines)

            def __iter__(self):
                return self

            def __next__(self):
                try:
                    return next(self._lines)
                except StopIteration:
                    raise KeyboardInterrupt from None

        graph_file, index_path = indexed
        monkeypatch.setattr(sys, "stdin", _InterruptedStdin(["pair 3 9\n"]))
        code, output = run_cli(
            "serve", "--graph", str(graph_file), "--index", str(index_path),
        )
        assert code == 0
        assert "s(3, 9)" in output
        assert "interrupted; shutting down" in output
        assert "served 1 queries" in output

    def test_serve_loop_eof_mid_command_is_a_clean_shutdown(
            self, indexed, monkeypatch):
        import sys

        class _EofStdin:
            def __iter__(self):
                return self

            def __next__(self):
                raise EOFError

        graph_file, index_path = indexed
        monkeypatch.setattr(sys, "stdin", _EofStdin())
        code, output = run_cli(
            "serve", "--graph", str(graph_file), "--index", str(index_path),
        )
        assert code == 0
        assert "interrupted; shutting down" in output
        assert "served 0 queries" in output

    def test_serve_loop_live_edge_insertion(self, indexed, monkeypatch):
        import io as io_module
        import sys

        graph_file, index_path = indexed
        monkeypatch.setattr(
            sys, "stdin",
            io_module.StringIO(
                "version\npair 3 9\nadd 2 50\nversion\npair 3 9\n"
                "add bad\nquit\n"
            ),
        )
        code, output = run_cli(
            "serve", "--graph", str(graph_file), "--index", str(index_path),
        )
        assert code == 0
        assert "index version 1" in output
        assert "rows re-estimated, index now version 2" in output
        assert "index version 2" in output
        assert "error: malformed edge line" in output


class TestUpdateAndSnapshot:
    def test_update_writes_index_and_graph(self, indexed, tmp_path):
        graph_file, index_path = indexed
        edges = tmp_path / "edges.tsv"
        edges.write_text("# comment\n2 50\n7 61\n")
        out_index = tmp_path / "updated.npz"
        out_graph = tmp_path / "updated.tsv"
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges), "--output", str(out_index),
            "--output-graph", str(out_graph),
        )
        assert code == 0
        assert "applied 2 edge insertions" in output
        assert "rows re-estimated" in output
        assert "version 2" in output
        assert out_index.exists() and out_graph.exists()
        # The updated artifacts serve queries on the updated graph.
        code, output = run_cli(
            "query", "pair", "--graph", str(out_graph), "--index", str(out_index),
            "--source", "2", "--target", "50",
        )
        assert code == 0

    def test_update_snapshot_resume_round_trip(self, indexed, tmp_path):
        graph_file, index_path = indexed
        snaps = tmp_path / "snaps"
        out_graph = tmp_path / "g.tsv"
        edges_a = tmp_path / "a.tsv"
        edges_a.write_text("2 50\n")
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges_a), "--snapshot-dir", str(snaps),
            "--output-graph", str(out_graph),
        )
        assert code == 0
        assert "estimating it once" in output  # plain index has no system
        assert "snapshot v2 written" in output

        # Second update resumes from the snapshot: no --index, no estimation.
        edges_b = tmp_path / "b.tsv"
        edges_b.write_text("2 60\n")
        code, output = run_cli(
            "update", "--graph", str(out_graph), "--edges", str(edges_b),
            "--snapshot-dir", str(snaps), "--output-graph", str(out_graph),
        )
        assert code == 0
        assert "loaded snapshot v2" in output
        assert "estimating" not in output
        assert "snapshot v3 written" in output

        code, output = run_cli("snapshot", "list", "--dir", str(snaps))
        assert code == 0
        rows = [line.split() for line in output.splitlines()[1:]]
        assert [(row[0], row[3]) for row in rows] == [("2", "yes"), ("3", "yes")]

    def test_update_warns_without_output_graph(self, indexed, tmp_path):
        graph_file, index_path = indexed
        edges = tmp_path / "edges.tsv"
        edges.write_text("2 50\n")
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges), "--snapshot-dir", str(tmp_path / "snaps"),
        )
        assert code == 0
        assert "warning" in output and "--output-graph" in output

    def test_update_with_already_present_edges_is_noop(self, indexed, tmp_path):
        graph_file, index_path = indexed
        edges = tmp_path / "edges.tsv"
        edges.write_text("9 3\n")  # edge exists in the seed-17 copying graph
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges),
        )
        assert code == 0
        assert "already present; nothing to update" in output

    def test_update_requires_index_or_snapshot(self, graph_file, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("0 1\n")
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--edges", str(edges),
        )
        assert code == 1
        assert "requires --index or" in output

    def test_update_empty_edges(self, indexed, tmp_path):
        graph_file, index_path = indexed
        edges = tmp_path / "edges.tsv"
        edges.write_text("# nothing\n")
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges),
        )
        assert code == 2
        assert "no edges" in output

    def test_update_malformed_edges(self, indexed, tmp_path):
        graph_file, index_path = indexed
        edges = tmp_path / "edges.tsv"
        edges.write_text("0 1 2\n")
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges),
        )
        assert code == 1
        assert "malformed edge line" in output

    def test_snapshot_save_list_prune(self, indexed, tmp_path):
        _graph_file, index_path = indexed
        snaps = tmp_path / "snaps"
        for _ in range(3):
            code, output = run_cli(
                "snapshot", "save", "--dir", str(snaps), "--index", str(index_path),
            )
            assert code == 0
        code, output = run_cli("snapshot", "prune", "--dir", str(snaps),
                               "--retain", "1")
        assert code == 0
        assert "pruned versions [1, 2]; kept [3]" in output
        code, output = run_cli("snapshot", "list", "--dir", str(snaps))
        assert code == 0
        # Saves carry no system: a version is its index file.
        assert sorted(path.name for path in snaps.iterdir()) \
            == ["index-v00000003.npz"]
        assert output.splitlines()[0].split()[0] == "version"
        assert output.splitlines()[1].split()[::3] == ["3", "no"]

    def test_snapshot_save_requires_index(self, tmp_path):
        code, output = run_cli("snapshot", "save", "--dir", str(tmp_path))
        assert code == 2
        assert "requires --index" in output

    def test_snapshot_list_empty(self, tmp_path):
        code, output = run_cli("snapshot", "list", "--dir", str(tmp_path / "none"))
        assert code == 0
        assert "no snapshots" in output

    def test_snapshot_zero_retention_fails_without_writing(self, indexed,
                                                           tmp_path):
        _graph_file, index_path = indexed
        snaps = tmp_path / "snaps"
        code, output = run_cli("snapshot", "save", "--dir", str(snaps),
                               "--index", str(index_path), "--retain", "0")
        assert code == 1
        assert "snapshot retention must be >= 1" in output
        assert not snaps.exists()

    def test_index_only_lineage_opens_in_every_command(self, indexed,
                                                       tmp_path):
        """A directory of ``index-v*.npz`` files and nothing else (once
        refused as a single-store lineage) is a lineage to every command."""
        from repro.core.index import DiagonalIndex

        graph_file, index_path = indexed
        lineage = tmp_path / "lineage"
        lineage.mkdir()
        for version in (1, 2):
            DiagonalIndex.load(index_path).save(
                lineage / f"index-v0000000{version}.npz")
        code, output = run_cli("snapshot", "list", "--dir", str(lineage))
        assert code == 0
        assert [line.split()[::3] for line in output.splitlines()[1:]] \
            == [["1", "no"], ["2", "no"]]
        edges = tmp_path / "edges.tsv"
        edges.write_text("2 50\n")
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--edges", str(edges),
            "--snapshot-dir", str(lineage),
        )
        assert code == 0
        assert f"loaded snapshot v2 in {lineage} (shards: 1)" in output
        assert "estimating it once" in output
        assert "snapshot v3 written" in output
        code, output = run_cli("snapshot", "prune", "--dir", str(lineage),
                               "--retain", "1")
        assert code == 0
        assert "pruned versions [1, 2]; kept [3]" in output
        assert sorted(path.name for path in lineage.iterdir()) == [
            "index-v00000003.npz", "system-v00000003.npz"]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_restart_drill_reopens_the_lineage_without_writing(
            self, indexed, tmp_path, shards):
        """The documented restart drill: re-adding an edge already in the
        graph opens the lineage, applies nothing and writes nothing — and
        says the version is already on disk instead of claiming a write."""
        graph_file, index_path = indexed
        snaps = tmp_path / "snaps"
        graph2 = tmp_path / "updated.tsv"
        edges = tmp_path / "edges.tsv"
        edges.write_text("2 50\n")
        code, _ = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges), "--snapshot-dir", str(snaps),
            "--shards", str(shards), "--output-graph", str(graph2),
        )
        assert code == 0
        files_before = sorted(str(path) for path in snaps.rglob("*"))

        code, output = run_cli(
            "update", "--graph", str(graph2), "--edges", str(edges),
            "--snapshot-dir", str(snaps),
        )
        assert code == 0
        assert f"loaded snapshot v2 in {snaps} (shards: 1)" in output
        assert "all 1 edges already present; nothing to update" in output
        assert f"snapshot v2 already on disk in {snaps}" in output
        assert "written" not in output
        assert sorted(str(path) for path in snaps.rglob("*")) == files_before


class TestShardedCli:
    def test_index_shards_bitwise_identical_across_counts(self, graph_file, tmp_path):
        """K = 1 included: every local build uses per-source streams, so the
        file equals the index a query service builds for itself."""
        from repro.config import SimRankParams
        from repro.core.index import DiagonalIndex
        from repro.service import QueryService

        graph = graph_io.read_edge_list(graph_file, relabel=False)
        params = SimRankParams.paper_defaults().with_(index_walkers=40,
                                                      walk_steps=5)
        expected = QueryService.build(graph, params).index.diagonal
        for shards in (1, 2, 3):
            path = tmp_path / f"index-{shards}.npz"
            code, output = run_cli(
                "index", "--graph", str(graph_file), "--output", str(path),
                "--walkers", "40", "--steps", "5", "--shards", str(shards),
            )
            assert code == 0
            assert f"across {shards} shards" in output
            diagonal = DiagonalIndex.load(path).diagonal
            assert diagonal.tobytes() == expected.tobytes(), shards

    def test_invalid_shard_count_fails_loudly(self, indexed):
        graph_file, index_path = indexed
        code, output = run_cli(
            "serve", "--graph", str(graph_file), "--index", str(index_path),
            "--shards", "0",
        )
        assert code == 1
        assert "num_shards must be >= 1" in output

    def test_index_shards_rejects_other_modes(self, graph_file, tmp_path):
        code, output = run_cli(
            "index", "--graph", str(graph_file),
            "--output", str(tmp_path / "index.npz"),
            "--shards", "2", "--mode", "rdd",
        )
        assert code == 1
        assert "local" in output

    def test_query_batch_parallel_scatter_matches_single_shard(self, indexed,
                                                               tmp_path):
        lines = ["pair 3 9", "topk 3 5", "source 7"]
        answer_lines = _single_shard_answer_lines(*indexed, lines)
        graph_file, index_path = indexed
        queries = tmp_path / "queries.txt"
        queries.write_text("\n".join(lines) + "\n")
        for shards, backend, workers in (("1", "serial", "1"),
                                         ("1", "processes", "2"),
                                         ("3", "serial", "1"),
                                         ("3", "processes", "4"),
                                         ("3", "processes", "2")):
            code, output = run_cli(
                "query-batch", "--graph", str(graph_file),
                "--index", str(index_path), "--queries", str(queries),
                "--shards", shards, "--serve-backend", backend,
                "--serve-workers", workers,
            )
            assert code == 0
            assert output.splitlines()[:3] == answer_lines

    def test_invalid_serve_workers_fails_loudly(self, indexed, tmp_path):
        graph_file, index_path = indexed
        queries = tmp_path / "queries.txt"
        queries.write_text("pair 3 9\n")
        code, output = run_cli(
            "query-batch", "--graph", str(graph_file),
            "--index", str(index_path), "--queries", str(queries),
            "--serve-workers", "0",
        )
        assert code == 1
        assert "serve_workers must be >= 1" in output

    def test_snapshot_subcommand_understands_sharded_lineage(self, indexed,
                                                             tmp_path):
        graph_file, index_path = indexed
        edges = tmp_path / "edges.tsv"
        edges.write_text("0 40\n")
        snaps = tmp_path / "snaps"
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges), "--shards", "2",
            "--snapshot-dir", str(snaps),
        )
        assert code == 0 and "snapshot v2 written" in output
        # list: the sharded lineage's versions, not 'no snapshots'.
        code, output = run_cli("snapshot", "list", "--dir", str(snaps))
        assert code == 0
        assert output.splitlines()[-1].split()[::3] == ["2", "yes"]
        assert "no snapshots" not in output
        # save: the diagonal as a new version, with no system (the first
        # update estimates it).
        code, output = run_cli("snapshot", "save", "--dir", str(snaps),
                               "--index", str(index_path))
        assert code == 0
        assert "snapshot v3 written" in output and "no linear system" in output
        code, output = run_cli("snapshot", "list", "--dir", str(snaps))
        assert output.splitlines()[-1].split()[::3] == ["3", "no"]
        # prune: keeps the newest versions, reports the removed ones.
        code, output = run_cli("snapshot", "prune", "--dir", str(snaps),
                               "--retain", "1")
        assert code == 0
        assert "pruned versions [2]; kept [3]" in output

    def test_serve_loop_sharded(self, indexed, monkeypatch):
        import io as io_module
        import sys

        graph_file, index_path = indexed
        monkeypatch.setattr(
            sys, "stdin",
            io_module.StringIO("pair 3 9\ntopk 3 5\nadd 2 50\nversion\nquit\n"),
        )
        code, output = run_cli(
            "serve", "--graph", str(graph_file), "--index", str(index_path),
            "--shards", "3",
        )
        assert code == 0
        assert "across 3 shards" in output
        assert "s(3, 9)" in output
        assert "rows re-estimated, index now version 2" in output
        assert "index version 2" in output

    def test_sharded_serve_answers_match_single_shard(self, indexed, monkeypatch):
        import io as io_module
        import sys

        graph_file, index_path = indexed
        expected = _single_shard_answer_lines(graph_file, index_path,
                                              ["pair 3 9", "topk 3 5"])
        for extra in ([], ["--shards", "4"]):
            monkeypatch.setattr(
                sys, "stdin", io_module.StringIO("pair 3 9\ntopk 3 5\nquit\n")
            )
            code, output = run_cli(
                "serve", "--graph", str(graph_file), "--index", str(index_path),
                *extra,
            )
            assert code == 0
            assert [line for line in output.splitlines()
                    if line.startswith(("s(", "topk "))] == expected

    def test_update_sharded_snapshot_lineage(self, indexed, tmp_path):
        graph_file, index_path = indexed
        edges = tmp_path / "edges.tsv"
        edges.write_text("1 50\n2 50\n")
        snap_dir = tmp_path / "snaps"
        graph2 = tmp_path / "updated.tsv"
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges), "--shards", "2",
            "--snapshot-dir", str(snap_dir), "--output-graph", str(graph2),
        )
        assert code == 0
        assert "(shards: 2)" in output
        # One version: index and system, whatever K is.
        assert sorted(path.name for path in snap_dir.iterdir()) == [
            "index-v00000002.npz", "system-v00000002.npz"]

        # Resume from the lineage (auto-detected) at another K.
        edges2 = tmp_path / "edges2.tsv"
        edges2.write_text("5 9\n")
        code, output = run_cli(
            "update", "--graph", str(graph2), "--edges", str(edges2),
            "--snapshot-dir", str(snap_dir), "--shards", "4",
            "--output-graph", str(graph2),
        )
        assert code == 0
        assert f"snapshot v2 in {snap_dir} (shards: 4)" in output
        assert "estimating" not in output
        assert "index now version 3" in output
        assert "snapshot v3 written" in output

    def test_per_shard_lineage_is_refused_with_its_migration(
            self, indexed, tmp_path):
        """A ``shard_plan.json`` lineage with one store per shard (an
        older layout) is refused by ``update`` and
        ``snapshot``, with a migration command that works."""
        import json

        from repro.core.index import DiagonalIndex

        graph_file, index_path = indexed
        old = tmp_path / "old"
        (old / "shard-00").mkdir(parents=True)
        (old / "shard_plan.json").write_text(json.dumps(
            {"num_shards": 1, "strategy": "hash", "n_nodes": None}))
        DiagonalIndex.load(index_path).save(
            old / "shard-00" / "index-v00000004.npz")
        edges = tmp_path / "edges.tsv"
        edges.write_text("1 50\n")
        migration = f"--index {old / 'shard-00' / 'index-v00000004.npz'}"
        for argv in (
            ("update", "--graph", str(graph_file), "--edges", str(edges),
             "--snapshot-dir", str(old), "--index", str(index_path)),
            ("snapshot", "list", "--dir", str(old)),
        ):
            code, output = run_cli(*argv)
            assert code == 1, argv
            assert "per-shard snapshot lineage" in output
            assert migration in output
        assert not list(old.glob("*-v*"))

        new = tmp_path / "new"
        code, output = run_cli("snapshot", "save", "--dir", str(new),
                               *migration.split())
        assert code == 0
        code, output = run_cli(
            "update", "--graph", str(graph_file), "--edges", str(edges),
            "--snapshot-dir", str(new),
        )
        assert code == 0
        assert f"loaded snapshot v1 in {new} (shards: 1)" in output
        assert "snapshot v2 written" in output

    def test_rebalance_is_no_subcommand(self, capsys):
        """No shard assignment exists, so no command migrates one."""
        with pytest.raises(SystemExit) as excinfo:
            main(["rebalance", "--graph", "g.tsv", "--force"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'rebalance'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve-http", "--auto-rebalance"],
        ["serve-http", "--rebalance-threshold", "1.5"],
        ["serve-http", "--rebalance-interval", "1"],
        ["replay", "--rebalance-every", "2"],
        ["serve-http", "--shard-strategy", "hash"],
    ], ids=["auto-rebalance", "rebalance-threshold", "rebalance-interval",
            "rebalance-every", "shard-strategy"])
    def test_plan_migration_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--graph", "g.tsv", "--index", "i.npz"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["replay", "--max-retry-seconds", "5"], "--max-retry-seconds"),
        (["query", "pair", "--source", "3", "--steps", "6"], "--steps"),
        (["query", "pair", "--source", "3", "--decay", "0.8"], "--decay"),
        (["query", "source", "--source", "3", "--jacobi", "2"], "--jacobi"),
        (["query", "source", "--source", "3", "--walkers", "50"],
         "--walkers"),
        (["query", "topk", "--source", "3", "--query-walkers", "300"],
         "--query-walkers"),
        (["query", "topk", "--source", "3", "--seed", "4"], "--seed"),
    ], ids=["replay-max-retry-seconds", "query-steps", "query-decay",
            "query-jacobi", "query-walkers", "query-query-walkers",
            "query-seed"])
    def test_removed_flags_are_usage_errors(self, argv, flag, capsys):
        """``replay`` runs one in-process driver with no retry budget, and
        ``query`` answers at the index's parameters."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--graph", "g.tsv", "--index", "i.npz"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("query-batch", "--serve-backend"), ("serve", "--serve-backend"),
        ("index", "--shard-backend"), ("update", "--shard-backend"),
    ])
    def test_threads_is_no_backend_choice(self, command, flag, capsys):
        """Backends are ``serial`` or a process pool; the thread pool that
        never beat ``serial`` is gone from every backend flag."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, "threads"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid choice: 'threads'" in err
        assert "'serial', 'processes'" in err

    def test_update_continues_a_one_shard_lineage_at_two_shards(
            self, indexed, tmp_path):
        """``--shards 2`` against a lineage written at one shard runs at
        two and saves into the same lineage: K never shaped a version."""
        graph_file, index_path = indexed
        edges = tmp_path / "edges.tsv"
        edges.write_text("1 50\n")
        snap_dir = tmp_path / "snaps"
        graph2 = tmp_path / "updated.tsv"
        code, _ = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges), "--snapshot-dir", str(snap_dir),
            "--output-graph", str(graph2),
        )
        assert code == 0
        edges.write_text("2 50\n")
        code, output = run_cli(
            "update", "--graph", str(graph2), "--edges", str(edges),
            "--snapshot-dir", str(snap_dir), "--shards", "2",
            "--output-graph", str(graph2),
        )
        assert code == 0
        assert f"loaded snapshot v2 in {snap_dir} (shards: 2)" in output
        assert "estimating" not in output
        assert "snapshot v3 written" in output
        assert SnapshotStore(snap_dir).versions() == [2, 3]

    @pytest.mark.parametrize("restart_shards", [1, 3])
    def test_update_restarts_a_two_shard_lineage_at_any_shard_count(
            self, indexed, tmp_path, restart_shards):
        """A lineage written at ``--shards 2`` continues at another K, and
        its next version equals the one a two-shard run writes."""
        graph_file, index_path = indexed
        edges = tmp_path / "edges.tsv"
        diagonals = {}
        for shards in (2, restart_shards):
            snap_dir = tmp_path / f"snaps-{shards}"
            graph2 = tmp_path / f"updated-{shards}.tsv"
            edges.write_text("1 50\n")
            code, _ = run_cli(
                "update", "--graph", str(graph_file), "--index",
                str(index_path), "--edges", str(edges), "--shards", "2",
                "--snapshot-dir", str(snap_dir), "--output-graph", str(graph2),
            )
            assert code == 0
            edges.write_text("2 50\n")
            code, output = run_cli(
                "update", "--graph", str(graph2), "--edges", str(edges),
                "--snapshot-dir", str(snap_dir), "--shards", str(shards),
                "--output-graph", str(graph2),
            )
            assert code == 0
            assert (f"loaded snapshot v2 in {snap_dir} (shards: {shards})"
                    in output)
            assert "snapshot v3 written" in output
            version, index, _system = SnapshotStore(snap_dir).load()
            assert version == 3
            diagonals[shards] = index.diagonal.tobytes()
        assert diagonals[restart_shards] == diagonals[2]

    def test_query_service_lineage_opens_in_sharded_service_and_cli(
            self, indexed, tmp_path):
        """A library ``QueryService.save_snapshot`` lineage opens in a fresh
        ``QueryService.from_snapshot`` and in ``update --snapshot-dir``,
        same answers and ``index_version``."""
        from repro.service import PairQuery, QueryService
        from repro.service import SourceQuery, TopKQuery

        graph_file, index_path = indexed
        graph = graph_io.read_edge_list(graph_file, relabel=False)
        snaps = tmp_path / "snaps"
        graph2 = tmp_path / "updated.tsv"
        queries = [PairQuery(3, 9), TopKQuery(50, k=5), SourceQuery(2)]
        with QueryService.from_index_file(graph, index_path) as library:
            library.add_edges([(2, 50)])
            library.save_snapshot(snaps)
            graph_io.write_edge_list(library.graph, graph2)
            expected = library.run_batch(queries)
        updated = graph_io.read_edge_list(graph2, relabel=False)
        with QueryService.from_snapshot(updated, snaps) as sharded:
            assert sharded.num_shards == 1
            answers = sharded.run_batch(queries)
        assert answers.index_version == expected.index_version == 2
        assert answers[:2] == expected[:2]
        assert answers[2].tobytes() == expected[2].tobytes()

        edges = tmp_path / "edges.tsv"
        edges.write_text("7 61\n")
        code, output = run_cli(
            "update", "--graph", str(graph2), "--edges", str(edges),
            "--snapshot-dir", str(snaps),
        )
        assert code == 0
        assert f"loaded snapshot v2 in {snaps} (shards: 1)" in output
        assert "estimating" not in output
        assert "snapshot v3 written" in output

    def test_sharded_cli_lineage_opens_in_query_service(self, indexed,
                                                        tmp_path):
        """The other way: a two-shard CLI lineage opens in the library's
        ``QueryService.from_snapshot``, at two shards and at one, with its
        system."""
        from repro.service import PairQuery, QueryService
        from repro.service import SourceQuery, TopKQuery

        graph_file, index_path = indexed
        snaps = tmp_path / "snaps"
        graph2 = tmp_path / "updated.tsv"
        edges = tmp_path / "edges.tsv"
        edges.write_text("2 50\n")
        code, _ = run_cli(
            "update", "--graph", str(graph_file), "--index", str(index_path),
            "--edges", str(edges), "--snapshot-dir", str(snaps),
            "--shards", "2", "--output-graph", str(graph2),
        )
        assert code == 0
        updated = graph_io.read_edge_list(graph2, relabel=False)
        queries = [PairQuery(3, 9), TopKQuery(50, k=5), SourceQuery(2)]
        with QueryService.from_snapshot(
                updated, snaps,
                sharding=ShardingParams(num_shards=2)) as sharded:
            assert sharded.num_shards == 2
            expected = sharded.run_batch(queries)
            sharded.add_edges([(7, 61)])
            expected_after = sharded.run_batch(queries)
        with QueryService.from_snapshot(updated, snaps) as library:
            answers = library.run_batch(queries)
            # The gathered system is attached: the next update is
            # incremental and lands where the sharded one did.
            assert library.add_edges([(7, 61)]).affected_rows \
                < updated.n_nodes
            answers_after = library.run_batch(queries)
        for got, want in ((answers, expected), (answers_after, expected_after)):
            assert got.index_version == want.index_version
            assert got[:2] == want[:2]
            assert got[2].tobytes() == want[2].tobytes()
        assert (answers.index_version, answers_after.index_version) == (2, 3)


class TestReplay:
    def test_generated_scenario_appends_a_record(self, indexed, tmp_path):
        import json

        graph_file, index_path = indexed
        records = tmp_path / "records.jsonl"
        code, output = run_cli(
            "replay", "--graph", str(graph_file), "--index", str(index_path),
            "--scenario", "zipf", "--events", "12", "--batch-size", "4",
            "--shards", "2", "--output", str(records),
        )
        assert code == 0
        assert "scenario 'zipf' [exact]" in output
        record = json.loads(records.read_text(encoding="utf-8"))
        assert record["n_queries"] == 12
        assert len(record["answer_checksum"]) == 64

    def test_saved_trace_replays_deterministically(self, indexed, tmp_path):
        import json

        graph_file, index_path = indexed
        trace = tmp_path / "trace.jsonl"
        records = tmp_path / "records.jsonl"
        common = ("replay", "--graph", str(graph_file),
                  "--index", str(index_path), "--batch-size", "4",
                  "--output", str(records))
        code, _ = run_cli(*common, "--scenario", "update_storm",
                          "--events", "30", "--trace-seed", "3",
                          "--save-trace", str(trace))
        assert code == 0
        code, _ = run_cli(*common, "--trace", str(trace))
        assert code == 0
        first, second = [
            json.loads(line)
            for line in records.read_text(encoding="utf-8").splitlines()
        ]
        assert first["answer_checksum"] == second["answer_checksum"]
        assert first["n_updates"] >= 1

    def test_accuracy_budget_enters_approximate_mode(self, indexed):
        graph_file, index_path = indexed
        code, output = run_cli(
            "replay", "--graph", str(graph_file), "--index", str(index_path),
            "--scenario", "uniform", "--events", "8", "--batch-size", "4",
            "--accuracy-budget", "0.2", "--approx-walkers", "30",
            "--approx-steps", "3",
        )
        assert code == 0
        assert "[approximate]" in output

    def test_malformed_trace_file_names_the_line(self, indexed, tmp_path):
        graph_file, index_path = indexed
        trace = tmp_path / "broken.jsonl"
        trace.write_text('{"at": 0.0, "kind": "nope"}\n', encoding="utf-8")
        code, output = run_cli(
            "replay", "--graph", str(graph_file), "--index", str(index_path),
            "--trace", str(trace),
        )
        assert code == 1
        assert "trace line 1" in output
        assert "unknown event kind" in output


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "datasets"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0
        assert "wiki-vote" in completed.stdout
