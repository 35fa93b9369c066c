"""The ``/query`` body renderer (``service/http.py``) against ``json.dumps``.

:func:`~repro.service.http.render_query_body` splices each source vector's
nonzero entries into a cached run of ``0.0`` entries instead of building a
list of n floats.  The contract is byte equality with the payload the
server used to serialise whole, ``json.dumps({"answers": [encode_answer(q,
a), ...], "index_version": v})``, for every mix of answers: these
properties draw pair, source and top-k answers with vectors of 1 to 300
entries at any sparsity, including subnormals, signed zeros, integer-valued
floats and the non-finite values that take the ``json.dumps`` fallback.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import PairQuery, SourceQuery, TopKQuery
from repro.service.http import encode_answer, render_query_body

_EDGE_VALUES = [5e-324, 1.0, -0.0, 2.0, 1e16, 0.1, 1e-300,
                float("nan"), float("inf"), float("-inf")]

_scores = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(),
                    st.floats(0.0, 1.0))


@st.composite
def _source_answer(draw, scores=_scores):
    n_nodes = draw(st.integers(1, 300))
    entries = draw(st.dictionaries(st.integers(0, n_nodes - 1), scores,
                                   max_size=n_nodes))
    vector = np.zeros(n_nodes, dtype=np.float64)
    for node, score in entries.items():
        vector[node] = score
    return SourceQuery(draw(st.integers(0, n_nodes - 1))), vector


_pair_answer = st.tuples(st.builds(PairQuery, st.integers(0, 99),
                                   st.integers(0, 99)), _scores)
_topk_answer = st.tuples(
    st.builds(TopKQuery, st.integers(0, 99), st.integers(1, 10)),
    st.lists(st.tuples(st.integers(0, 99), _scores), max_size=10),
)
_answers = st.lists(st.one_of(_source_answer(), _pair_answer, _topk_answer),
                    min_size=1, max_size=6)


def _reference(pairs, version):
    return json.dumps({
        "answers": [encode_answer(query, answer) for query, answer in pairs],
        "index_version": version,
    }).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(pairs=_answers, version=st.integers(0, 10**6))
def test_rendered_body_is_byte_equal_to_json_dumps(pairs, version):
    queries = [query for query, _ in pairs]
    answers = [answer for _, answer in pairs]
    assert render_query_body(queries, answers, version) == \
        _reference(pairs, version)


@settings(max_examples=50, deadline=None)
@given(pair=_source_answer(st.floats(allow_nan=False, allow_infinity=False)))
def test_source_vector_rendering_decodes_bit_for_bit(pair):
    query, vector = pair
    body = render_query_body([query], [vector], 1)
    decoded = np.array(json.loads(body)["answers"][0], dtype=np.float64)
    assert np.array_equal(decoded.view(np.int64), vector.view(np.int64))


def test_source_vector_of_zeros_and_non_array_answers():
    query = SourceQuery(0)
    for answer in (np.zeros(5), [0.0, 0.5, -0.0], np.array([0.25])):
        assert render_query_body([query], [answer], 3) == \
            _reference([(query, answer)], 3)
