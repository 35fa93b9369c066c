"""The scenario harness: trace model, generators and the replay driver.

Three contracts are pinned here:

* **wire round-trips** — every generator's every event survives
  ``TraceEvent -> JSONL -> parse_trace_line`` bitwise, and malformed
  lines fail loudly with their line number (the ``parse_edge`` contract);
* **seeded determinism** — the same trace replayed twice on freshly
  built services yields identical answer checksums, in exact and in
  approximate mode, and identical integer counters in ``stats()``, the
  per-shard rows included;
* **exact-mode identity** — a sharded replay's checksum equals the
  single-shard reference's on every scenario shape, update storms
  included (approximate mode must *diverge* from it).
"""

import json

import pytest

from repro.config import ServiceParams, ShardingParams
from repro.errors import ConfigurationError, WireFormatError
from repro.service import (
    QueryService,
    ReplayOptions,
    Trace,
    TraceEvent,
    generate_trace,
    parse_trace_line,
    read_trace,
    replay_trace,
    trace_from_lines,
    write_records,
    write_trace,
)
from repro.service.scenarios import TRACE_GENERATORS, update_storm_trace

N_NODES = 120  # matches the shared service_graph fixture


def _integers(value, path=()):
    """Every integer leaf of a ``stats()`` payload, keyed by its path."""
    if isinstance(value, dict):
        found = {}
        for key, item in value.items():
            found.update(_integers(item, path + (key,)))
        return found
    if isinstance(value, list):
        found = {}
        for index, item in enumerate(value):
            found.update(_integers(item, path + (index,)))
        return found
    if isinstance(value, int) and not isinstance(value, bool):
        return {path: value}
    return {}


# --------------------------------------------------------------------------- #
# Satellite 1: serialization round-trips + loud failures
# --------------------------------------------------------------------------- #
class TestTraceRoundTrip:
    @pytest.mark.parametrize("scenario", sorted(TRACE_GENERATORS))
    def test_every_generator_event_round_trips_bitwise(self, scenario):
        trace = generate_trace(scenario, N_NODES, n_events=40, seed=7)
        assert trace.events, scenario
        for event in trace.events:
            line = event.to_json()
            parsed = parse_trace_line(line)
            assert parsed == event
            assert parsed.to_json() == line

    @pytest.mark.parametrize("scenario", sorted(TRACE_GENERATORS))
    def test_write_then_read_reproduces_the_trace(self, scenario, tmp_path):
        trace = generate_trace(scenario, N_NODES, n_events=30, seed=3)
        path = tmp_path / f"{scenario}.jsonl"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.name == trace.name
        assert loaded.meta == trace.meta
        assert loaded.events == trace.events
        # ... and the file itself is stable under a rewrite.
        rewritten = tmp_path / "again.jsonl"
        write_trace(loaded, rewritten)
        assert rewritten.read_bytes() == path.read_bytes()

    def test_both_event_kinds_round_trip(self):
        query = TraceEvent(at=0.5, kind="query", query="topk 3 5",
                           tenant="tenant-1")
        update = TraceEvent(at=1.0, kind="update", edges=((0, 1), (7, 3)))
        for event in (query, update):
            assert parse_trace_line(event.to_json()) == event

    def test_headerless_lines_parse_with_the_default_name(self):
        lines = [TraceEvent(at=0.0, kind="query", query="pair 1 2").to_json()]
        trace = trace_from_lines(lines)
        assert trace.name == "trace"
        assert trace.n_queries == 1

    def test_blank_lines_are_skipped(self, tmp_path):
        trace = generate_trace("uniform", N_NODES, n_events=5, seed=1)
        path = tmp_path / "padded.jsonl"
        write_trace(trace, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\n", "\n\n"), encoding="utf-8")
        assert read_trace(path).events == trace.events


class TestMalformedLinesFailLoudly:
    def test_not_json(self):
        with pytest.raises(WireFormatError, match=r"trace line 9: not valid"):
            parse_trace_line("{nope", line_number=9)

    def test_non_object(self):
        with pytest.raises(WireFormatError,
                           match=r"trace line 2: expected a JSON object"):
            parse_trace_line("[1, 2]", line_number=2)

    def test_unknown_fields(self):
        line = json.dumps({"at": 0.0, "kind": "query", "query": "pair 1 2",
                           "surprise": True})
        with pytest.raises(WireFormatError,
                           match=r"trace line 4: unexpected fields.*surprise"):
            parse_trace_line(line, line_number=4)

    def test_unknown_kind(self):
        line = json.dumps({"at": 0.0, "kind": "snapshot"})
        with pytest.raises(WireFormatError,
                           match=r"trace line 1: unknown event kind"):
            parse_trace_line(line, line_number=1)

    @pytest.mark.parametrize("at", [-1.0, "soon", None, float("nan")])
    def test_bad_timestamps(self, at):
        with pytest.raises(WireFormatError, match="timestamp"):
            TraceEvent(at=at, kind="query", query="pair 1 2")

    def test_query_event_grammar_is_enforced(self):
        with pytest.raises(WireFormatError):
            TraceEvent(at=0.0, kind="query", query="frobnicate 1 2")
        with pytest.raises(WireFormatError, match="needs a wire-format"):
            TraceEvent(at=0.0, kind="query", query=None)
        with pytest.raises(WireFormatError, match="must not carry edges"):
            TraceEvent(at=0.0, kind="query", query="pair 1 2",
                       edges=((0, 1),))

    @pytest.mark.parametrize("edges", [
        (), ((0,),), (("a", 1),), ((True, 2),), ((-1, 2),), "0 1",
    ])
    def test_bad_update_edges(self, edges):
        with pytest.raises(WireFormatError):
            TraceEvent(at=0.0, kind="update", edges=edges)

    def test_update_event_must_not_carry_a_query(self):
        with pytest.raises(WireFormatError, match="must not carry a query"):
            TraceEvent(at=0.0, kind="update", edges=((0, 1),),
                       query="pair 1 2")

    def test_decreasing_timestamps_are_rejected(self):
        events = (TraceEvent(at=2.0, kind="query", query="pair 1 2"),
                  TraceEvent(at=1.0, kind="query", query="pair 2 1"))
        with pytest.raises(WireFormatError,
                           match=r"event 1 timestamp 1\.0 decreases"):
            Trace(name="bad", events=events)

    def test_file_errors_name_the_path_and_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        good = TraceEvent(at=0.0, kind="query", query="pair 1 2").to_json()
        path.write_text(good + "\n{nope\n", encoding="utf-8")
        with pytest.raises(WireFormatError,
                           match=r"broken\.jsonl: trace line 2"):
            read_trace(path)

    def test_bad_header_fields_are_rejected(self):
        header = json.dumps({"kind": "trace", "name": "t", "extra": 1})
        with pytest.raises(WireFormatError, match="unexpected header fields"):
            trace_from_lines([header])
        with pytest.raises(WireFormatError, match="header name"):
            trace_from_lines([json.dumps({"kind": "trace", "name": ""})])
        with pytest.raises(WireFormatError, match="header meta"):
            trace_from_lines([json.dumps({"kind": "trace", "name": "t",
                                          "meta": [1]})])


class TestGenerators:
    @pytest.mark.parametrize("scenario", sorted(TRACE_GENERATORS))
    def test_same_seed_same_trace_different_seed_differs(self, scenario):
        first = generate_trace(scenario, N_NODES, n_events=40, seed=11)
        again = generate_trace(scenario, N_NODES, n_events=40, seed=11)
        other = generate_trace(scenario, N_NODES, n_events=40, seed=12)
        assert first.events == again.events
        assert first.events != other.events

    def test_update_storm_interleaves_updates(self):
        trace = generate_trace("update_storm", N_NODES, n_events=50,
                               storm_every=10, seed=2)
        assert trace.n_updates == 5
        assert trace.n_queries == 50

    def test_multi_tenant_labels_every_stream(self):
        trace = generate_trace("multi_tenant", N_NODES, n_events=30,
                               tenants=3, seed=2)
        assert {event.tenant for event in trace.events} == {
            "tenant-0", "tenant-1", "tenant-2"
        }

    def test_unknown_scenario_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            generate_trace("tsunami", N_NODES)

    def test_bad_mix_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="mix"):
            generate_trace("uniform", N_NODES, mix=(1.0, -0.5, 0.5))


# --------------------------------------------------------------------------- #
# Satellite 2: seeded replay determinism (exact + approximate)
# --------------------------------------------------------------------------- #
@pytest.fixture()
def make_sharded(service_graph, service_index, service_params):
    """A fresh sharded service per call (fresh caches, fresh load stats)."""

    def factory(service_overrides=None, **sharding_overrides):
        sharding_overrides.setdefault("num_shards", 3)
        return QueryService(
            service_graph, service_index, service_params,
            service_overrides,
            sharding=ShardingParams(**sharding_overrides),
        )

    return factory


class TestReplayDeterminism:
    def test_exact_replay_matches_single_shard_on_an_update_storm(
            self, make_service, make_sharded):
        trace = generate_trace("update_storm", N_NODES, n_events=24,
                               storm_every=8, seed=5)
        options = ReplayOptions(batch_size=8)
        single = replay_trace(make_service(), trace, options)
        sharded_one = replay_trace(make_sharded(), trace, options)
        sharded_two = replay_trace(make_sharded(), trace, options)
        assert sharded_one.answer_checksum == single.answer_checksum
        assert sharded_two.answer_checksum == single.answer_checksum
        assert single.versions_monotonic and sharded_one.versions_monotonic
        assert sharded_one.index_versions[1] > sharded_one.index_versions[0]
        assert single.mode == "exact" and single.accuracy_budget is None

    @pytest.mark.parametrize("scenario", sorted(TRACE_GENERATORS))
    def test_counters_are_deterministic(self, service_graph, service_index,
                                        service_params, scenario):
        """Every integer ``stats()`` reports, per-shard rows included, is
        fixed by the graph and the request stream: two same-seed replays
        at K = 3 agree exactly (the work counters a timing-free comparison
        rests on, and the ``sources_routed`` rows the spine reads) — for
        every generator, the spine's ``zipf_trace`` and
        ``update_storm_trace`` among them."""
        if scenario == "update_storm":
            trace = update_storm_trace(N_NODES, n_events=48, storm_every=12,
                                       seed=9)
        else:
            trace = generate_trace(scenario, N_NODES, n_events=48, seed=9)
        options = ReplayOptions(batch_size=6)
        results, counters = [], []
        for _ in range(2):
            with QueryService(
                service_graph, service_index, service_params,
                sharding=ShardingParams(num_shards=3),
            ) as service:
                results.append(replay_trace(service, trace, options))
                counters.append(_integers(service.stats()))
        first, second = results
        assert first.answer_checksum == second.answer_checksum
        assert counters[0] == counters[1]
        assert counters[0][("sources_simulated",)] > 0
        assert counters[0][("queries",)] == trace.n_queries

    def test_batches_split_on_size_window_and_updates(self, make_service):
        query = TraceEvent(at=0.0, kind="query", query="pair 1 2")
        events = [query] * 5 + [
            TraceEvent(at=0.0, kind="update", edges=((0, 1),))
        ] + [TraceEvent(at=5.0, kind="query", query="pair 1 2")] * 3
        trace = Trace(name="grouping", events=tuple(events))
        # batch_size=2: ceil(5/2) + ceil(3/2) = 5 batches around the update.
        result = replay_trace(make_service(), trace,
                              ReplayOptions(batch_size=2))
        assert result.n_batches == 5
        assert result.n_updates == 1
        # A tight batch_window may only split batches further.
        windowed = replay_trace(
            make_service(),
            Trace(name="w", events=tuple(
                TraceEvent(at=float(i), kind="query", query="pair 1 2")
                for i in range(4)
            )),
            ReplayOptions(batch_size=10, batch_window=0.5),
        )
        assert windowed.n_batches == 4

    def test_approximate_replay_is_deterministic_and_diverges_from_exact(
            self, make_service, make_sharded):
        trace = generate_trace("zipf", N_NODES, n_events=20, seed=4)
        options = ReplayOptions(batch_size=8)
        exact = replay_trace(make_sharded(), trace, options)
        approx_params = ServiceParams(accuracy_budget=0.1, approx_walkers=40,
                                      approx_steps=3)
        approx_one = replay_trace(make_sharded(approx_params), trace, options)
        approx_two = replay_trace(make_sharded(approx_params), trace, options)
        assert approx_one.mode == "approximate"
        assert approx_one.accuracy_budget == 0.1
        assert approx_one.answer_checksum == approx_two.answer_checksum
        assert approx_one.answer_checksum != exact.answer_checksum
        # A single-shard approximate service answers identically too.
        single = replay_trace(make_service(accuracy_budget=0.1,
                                           approx_walkers=40, approx_steps=3),
                              trace, options)
        assert single.answer_checksum == approx_one.answer_checksum

    def test_records_append_as_parseable_jsonl(self, make_service, tmp_path):
        trace = generate_trace("uniform", N_NODES, n_events=10, seed=6)
        result = replay_trace(make_service(), trace, ReplayOptions(batch_size=4))
        path = tmp_path / "records.jsonl"
        write_records([result], path)
        write_records([result], path)
        records = [json.loads(line)
                   for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 2
        assert records[0] == records[1] == result.to_record()
        assert records[0]["scenario"] == "uniform"
        assert len(records[0]["answer_checksum"]) == 64


class TestApproxModeConfiguration:
    def test_explicit_operating_point_skips_calibration(self, make_service):
        service = make_service(accuracy_budget=0.1, approx_walkers=40,
                               approx_steps=3)
        assert service.budget_calibration is None
        stats = service.stats()
        assert stats["approx_mode"] is True
        assert stats["accuracy_budget"] == 0.1
        assert stats["query_walkers_served"] == 40
        assert stats["walk_steps_served"] == 3

    def test_exact_mode_reports_the_full_operating_point(
            self, make_service, service_params):
        stats = make_service().stats()
        assert stats["approx_mode"] is False
        assert stats["accuracy_budget"] is None
        assert stats["query_walkers_served"] == service_params.query_walkers
        assert stats["walk_steps_served"] == service_params.walk_steps

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceParams(accuracy_budget=0.0)
        with pytest.raises(ConfigurationError):
            ServiceParams(accuracy_budget=1.5)
        with pytest.raises(ConfigurationError, match="approx_walkers"):
            ServiceParams(approx_walkers=40)
        with pytest.raises(ConfigurationError, match="approx_steps"):
            ServiceParams(approx_steps=3)
        with pytest.raises(ConfigurationError):
            ServiceParams(accuracy_budget=0.1, approx_walkers=0)

    def test_replay_options_validation(self):
        with pytest.raises(ConfigurationError):
            ReplayOptions(batch_size=0)
        with pytest.raises(ConfigurationError):
            ReplayOptions(batch_window=-0.1)
        with pytest.raises(ConfigurationError):
            ReplayOptions(max_attempts=0)
