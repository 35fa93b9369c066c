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

import hashlib
import json
import math

import pytest

from repro.analysis.accuracy import exact_linearized_matrix
from repro.config import ServiceParams, ShardingParams
from repro.errors import ConfigurationError, WireFormatError
from repro.service import (
    QueryService,
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

# ``generate_trace(scenario, N_NODES, n_events=30, seed=3)``: sha256 of the
# header line and every event line, and the answer checksum of its exact
# replay on the shared service fixture.  The spine replays these
# generators, so a change to either digest changes what it measures.
PINNED_TRACES = {
    "bursty": (
        "fb5f25b835cdf54cca502925fe2e8fb7130b8bf53d90f2aa05d5f0da53bf39a5",
        "c3cb8a3534c784141d5cc444665330146d5d4020d200fe291e294e9b80b390ed",
    ),
    "multi_tenant": (
        "4e37dde5b39af88c45d37ff66e9ae34ea5023dc74cb4cda7365a98f324d177fd",
        "b3db243b13be5c8117c64050313c34ed30f545849424110a95f464c69d6af1ab",
    ),
    "uniform": (
        "d53ef94f290e9db62ec628c972a24415333aa942e36f4cb33befec786920ca47",
        "5e920e6fafe45aca2d584b5695ff45c015d5ec6d98eb54cdd1298c59593151b2",
    ),
    "update_storm": (
        "d4d6b5fd80287c71263d3abd44c339eb3541c2c4c02b2327b26967555a3bd4ee",
        "e54d8c19851afd7cc0e493825a3b3ea01b744258cf207e0a2db4576ad672e4f4",
    ),
    "zipf": (
        "b795903688ef5d3c7350c4addbcdbce5a126839484e434a70ec40f9271790d6f",
        "66dab49ccca4d4a036f6e538704948a8260a0b66da7a608c6a99e49ebf2ae9e8",
    ),
}


def _pinned_trace(scenario):
    return generate_trace(scenario, N_NODES, n_events=30, seed=3)


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

    @pytest.mark.parametrize("scenario", sorted(PINNED_TRACES))
    def test_generated_bytes_are_pinned(self, scenario):
        trace = _pinned_trace(scenario)
        lines = [trace.header_json()] + [event.to_json()
                                         for event in trace.events]
        digest = hashlib.sha256(
            "".join(line + "\n" for line in lines).encode("utf-8")
        ).hexdigest()
        assert digest == PINNED_TRACES[scenario][0]

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
        single = replay_trace(make_service(), trace, batch_size=8)
        sharded_one = replay_trace(make_sharded(), trace, batch_size=8)
        sharded_two = replay_trace(make_sharded(), trace, batch_size=8)
        assert sharded_one.answer_checksum == single.answer_checksum
        assert sharded_two.answer_checksum == single.answer_checksum
        assert single.versions_monotonic and sharded_one.versions_monotonic
        assert sharded_one.index_versions[1] > sharded_one.index_versions[0]
        assert single.mode == "exact" and single.accuracy_budget is None

    @pytest.mark.parametrize("scenario", sorted(
        set(TRACE_GENERATORS) - {"update_storm"}))
    def test_exact_replay_matches_single_shard(self, make_service,
                                               make_sharded, scenario):
        trace = generate_trace(scenario, N_NODES, n_events=24, seed=5)
        single = replay_trace(make_service(), trace, batch_size=8)
        sharded = replay_trace(make_sharded(), trace, batch_size=8)
        assert sharded.answer_checksum == single.answer_checksum
        assert sharded.n_queries == single.n_queries == trace.n_queries

    @pytest.mark.parametrize("scenario", sorted(PINNED_TRACES))
    def test_exact_answers_are_pinned(self, make_service, scenario):
        result = replay_trace(make_service(), _pinned_trace(scenario),
                              batch_size=5)
        assert result.answer_checksum == PINNED_TRACES[scenario][1]

    @pytest.mark.parametrize("scenario", sorted(TRACE_GENERATORS))
    def test_exact_answers_do_not_depend_on_batch_size(self, make_service,
                                                       scenario):
        """Batching only groups the work: each source's walks are seeded
        by the source, so one-query batches, small batches and one batch
        per query run answer identically."""
        trace = generate_trace(scenario, N_NODES, n_events=30, seed=8)
        checksums = {replay_trace(make_service(), trace,
                                  batch_size=size).answer_checksum
                     for size in (1, 4, 64)}
        assert len(checksums) == 1

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
        results, counters = [], []
        for _ in range(2):
            with QueryService(
                service_graph, service_index, service_params,
                sharding=ShardingParams(num_shards=3),
            ) as service:
                results.append(replay_trace(service, trace, batch_size=6))
                counters.append(_integers(service.stats()))
        first, second = results
        assert first.answer_checksum == second.answer_checksum
        assert counters[0] == counters[1]
        assert counters[0][("sources_simulated",)] > 0
        assert counters[0][("queries",)] == trace.n_queries

    def test_batches_split_on_size_and_updates(self, make_service):
        query = TraceEvent(at=0.0, kind="query", query="pair 1 2")
        events = [query] * 5 + [
            TraceEvent(at=0.0, kind="update", edges=((0, 1),))
        ] + [TraceEvent(at=5.0, kind="query", query="pair 1 2")] * 3
        trace = Trace(name="grouping", events=tuple(events))
        # batch_size=2: ceil(5/2) + ceil(3/2) = 5 batches around the update.
        result = replay_trace(make_service(), trace, batch_size=2)
        assert result.n_batches == 5
        assert result.n_updates == 1

    @pytest.mark.parametrize("batch_size", [1, 3, 8, 64])
    def test_batches_are_runs_of_queries_cut_at_batch_size(
            self, make_service, batch_size):
        """Each run of consecutive queries between updates is answered in
        ``ceil(run / batch_size)`` batches; updates never join a batch."""
        trace = update_storm_trace(N_NODES, n_events=30, storm_every=7,
                                   seed=4)
        runs, run = [], 0
        for event in trace.events:
            if event.kind == "update":
                runs.append(run)
                run = 0
            else:
                run += 1
        runs.append(run)
        result = replay_trace(make_service(), trace, batch_size=batch_size)
        assert result.n_batches == sum(math.ceil(length / batch_size)
                                       for length in runs)
        assert result.n_updates == trace.n_updates == len(runs) - 1
        assert result.n_queries == trace.n_queries

    def test_approximate_replay_is_deterministic_and_diverges_from_exact(
            self, make_service, make_sharded):
        trace = generate_trace("zipf", N_NODES, n_events=20, seed=4)
        exact = replay_trace(make_sharded(), trace, batch_size=8)
        approx_params = ServiceParams(accuracy_budget=0.1, approx_walkers=40,
                                      approx_steps=3)
        approx_one = replay_trace(make_sharded(approx_params), trace,
                                  batch_size=8)
        approx_two = replay_trace(make_sharded(approx_params), trace,
                                  batch_size=8)
        assert approx_one.mode == "approximate"
        assert approx_one.accuracy_budget == 0.1
        assert approx_one.answer_checksum == approx_two.answer_checksum
        assert approx_one.answer_checksum != exact.answer_checksum
        # A single-shard approximate service answers identically too.
        single = replay_trace(make_service(accuracy_budget=0.1,
                                           approx_walkers=40, approx_steps=3),
                              trace, batch_size=8)
        assert single.answer_checksum == approx_one.answer_checksum

    def test_records_append_as_parseable_jsonl(self, make_service, tmp_path):
        trace = generate_trace("uniform", N_NODES, n_events=10, seed=6)
        result = replay_trace(make_service(), trace, batch_size=4)
        path = tmp_path / "records.jsonl"
        write_records([result], path)
        write_records([result], path)
        records = [json.loads(line)
                   for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 2
        assert records[0] == records[1] == result.to_record()
        assert records[0]["scenario"] == "uniform"
        assert len(records[0]["answer_checksum"]) == 64

    def test_record_keys_are_the_scenario_schema(self, make_service):
        trace = generate_trace("zipf", N_NODES, n_events=6, seed=6)
        record = replay_trace(make_service(), trace).to_record()
        assert set(record) == {
            "scenario", "mode", "n_events", "n_queries", "n_updates",
            "n_batches", "duration_seconds", "qps", "p50_latency_seconds",
            "p99_latency_seconds", "cache_hit_rate", "answer_checksum",
            "index_versions", "versions_monotonic", "accuracy_budget",
            "realized_mean_error", "realized_max_error",
        }


@pytest.fixture(scope="module")
def exact_reference(service_graph, service_params):
    """A converged exact similarity matrix of the shared service graph."""
    return exact_linearized_matrix(service_graph,
                                   service_params.with_(walk_steps=12))


class TestRealizedError:
    def test_without_a_reference_no_error_is_reported(self, make_service):
        trace = generate_trace("uniform", N_NODES, n_events=8, seed=2)
        result = replay_trace(make_service(), trace)
        assert result.realized_mean_error is None
        assert result.realized_max_error is None

    @pytest.mark.parametrize("mix,bound", [
        ((1.0, 0.0, 0.0), 0.005),
        ((0.0, 1.0, 0.0), 0.005),
        ((0.0, 0.0, 1.0), 0.02),
    ], ids=["pair", "source", "topk"])
    def test_every_query_kind_is_measured_against_the_reference(
            self, make_service, exact_reference, mix, bound):
        """Each query kind folds its own error into the record: the exact
        mode's Monte Carlo answers sit close to the converged scores, and
        the mean of the per-query errors never exceeds their maximum."""
        trace = generate_trace("uniform", N_NODES, n_events=20, seed=2,
                               mix=mix)
        result = replay_trace(make_service(), trace,
                              reference=exact_reference)
        assert result.realized_mean_error is not None
        assert 0.0 < result.realized_mean_error <= result.realized_max_error
        assert result.realized_max_error < bound


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

    def test_replay_batch_size_validation(self, make_service):
        trace = generate_trace("uniform", N_NODES, n_events=4, seed=1)
        with pytest.raises(ConfigurationError, match="batch_size"):
            replay_trace(make_service(), trace, batch_size=0)
