"""Property tests over random graphs, checked against the definitions."""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from graphgroups import Graph, Word, primitive_root, trace_equal  # noqa: E402


@st.composite
def powers(draw):
    """A graph on at most five vertices, a positive root of at most three
    letters and a power k <= 4."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    edges = [p for p in itertools.combinations(vertices, 2) if draw(st.booleans())]
    root = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3))
    return Graph(vertices, edges), root, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None, database=None)
@given(powers())
def test_primitive_root_of_a_power(case):
    graph, root, k = case
    word = Word(graph, [(v, 1) for v in root]) ** k
    found, exp = primitive_root(word)
    assert trace_equal(found**exp, word)
    assert exp % k == 0
