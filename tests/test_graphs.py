import gc
import itertools
import re
import sys
import weakref
from unittest import mock

import pytest

from graphgroups import (
    Graph,
    ParseError,
    co_components,
    complement,
    connected_product,
    find_embedding,
    format_graph,
    induced,
    parse_graph,
    phi_search,
    resolve_name_collisions,
    standard_graph,
)
from graphgroups import commgraph, graphs
from graphgroups.graphs import clique_number
from oracles import (
    all_graphs_up_to,
    all_graphs_up_to_iso,
    brute_force_clique_number,
    brute_force_embedding_exists,
    is_isomorphic,
    ordered_backtracking_embedding,
    plain_forward_check,
)


def C4():
    return Graph("a b c d".split(), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def L3():
    return Graph("w x y z".split(), [("w", "x"), ("x", "y"), ("y", "z")])


class TestGraphBasics:
    def test_reflexive_adjacency_without_stored_loops(self):
        g = C4()
        assert g.adjacent("a", "a")
        assert g.adjacent("a", "b")
        assert not g.adjacent("a", "c")
        assert ("a", "a") not in g.edges()

    def test_degree_counts_distinct_neighbours(self):
        g = C4()
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at 'a' not allowed"):
            Graph(["a"], [("a", "a")])
        with pytest.raises(ValueError, match="self-loop at 'a' not allowed"):
            Graph(["a"], [["a", "a"]])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="edge endpoint 'c' is not a vertex"):
            Graph(["a", "b"], [("a", "c")])

    def test_rejects_duplicate_vertex(self):
        with pytest.raises(ValueError):
            Graph(["a", "a"])

    def test_rejects_a_name_the_text_format_cannot_write(self):
        # format_graph would write "vertices a b c", three vertices to parse_graph.
        with pytest.raises(ValueError, match="bad vertex name 'a b'"):
            Graph(["a b", "c"], [("a b", "c")])

    def test_rejects_a_vertex_that_is_not_a_string(self):
        # Word letters name vertices by string, so no word could reach vertex 1.
        with pytest.raises(ValueError, match="bad vertex name 1"):
            Graph([1, 2], [(1, 2)])

    def test_rejects_a_name_the_word_syntax_cannot_write(self):
        # The word x' is the inverse of x, so a vertex x' could not be read back.
        with pytest.raises(ValueError, match=re.escape("bad vertex name \"x'\"")):
            Graph(["x'"])

    @pytest.mark.parametrize("edge", ["ab", ("a", "b", "c"), ("a",), 5])
    def test_rejects_an_edge_that_is_not_a_pair(self, edge):
        # A string of two characters is no pair, as for word letters.
        message = f"edge must be a pair of vertices, got {edge!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(["a", "b", "c"], [edge])

    @pytest.mark.parametrize("edge", [("a", "b"), ["b", "a"], frozenset("ab")])
    def test_accepts_tuples_lists_and_frozensets_of_two_vertices(self, edge):
        g = Graph(["a", "b", "c"], [edge])
        assert g.edges() == (("a", "b"),) and g._edges == {frozenset("ab")}

    def test_unknown_vertex_in_adjacency(self):
        with pytest.raises(ValueError):
            C4().adjacent("a", "nope")


class TestStandardGraphs:
    def test_e_0_2_is_two_disjoint_edges(self):
        g = standard_graph("E(0,2)")
        assert len(g) == 4
        assert g.edges() == (("v1", "v2"), ("v3", "v4"))

    def test_e_0_0_is_empty(self):
        g = standard_graph("E(0,0)")
        assert len(g) == 0

    def test_l3_is_three_edge_path(self):
        g = standard_graph("L3")
        assert len(g) == 4
        assert g.edge_count == 3
        assert is_isomorphic(g, standard_graph("path(4)"))

    def test_c4_is_cycle(self):
        assert is_isomorphic(standard_graph("C4"), standard_graph("cycle(4)"))

    def test_complete(self):
        g = standard_graph("complete(4)")
        assert g.edge_count == 6

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            standard_graph("petersen")


class TestComplement:
    def test_complement_of_c4_is_two_disjoint_edges(self):
        assert is_isomorphic(complement(standard_graph("C4")), standard_graph("E(0,2)"))

    def test_l3_self_complementary(self):
        l3 = standard_graph("L3")
        assert is_isomorphic(complement(l3), l3)

    def test_involution_on_all_small_graphs(self):
        for g in all_graphs_up_to(5):
            assert complement(complement(g)) == g


class TestConnectedProduct:
    def test_two_single_vertices_give_an_edge(self):
        g = connected_product(standard_graph("E(1,0)"), Graph(["w1"]))
        assert len(g) == 2
        assert g.edge_count == 1

    def test_two_edgeless_pairs_give_c4(self):
        # The product of two 2-vertex edgeless graphs is the 4-cycle, whose
        # complement is two disjoint edges.
        pair = Graph(["p", "q"])
        other = Graph(["r", "s"])
        prod = connected_product(pair, other)
        assert is_isomorphic(prod, standard_graph("C4"))
        assert is_isomorphic(complement(prod), standard_graph("E(0,2)"))

    def test_two_single_edges_give_complete_4(self):
        prod = connected_product(Graph("a b".split(), [("a", "b")]),
                                 Graph("c d".split(), [("c", "d")]))
        assert is_isomorphic(prod, standard_graph("complete(4)"))

    def test_empty_graph_is_identity(self):
        g = C4()
        assert connected_product(g, Graph([])) == g

    def test_name_collisions_renamed(self):
        g = Graph(["a", "b"], [("a", "b")])
        renamed, renaming = resolve_name_collisions(g, g)
        assert renaming == {"a": "a_2", "b": "b_2"}
        prod = connected_product(g, g)
        assert len(prod) == 4
        assert prod.edge_count == 2 + 4
        g = Graph(["a", "a_2"], [("a", "a_2")])
        _, renaming = resolve_name_collisions(g, g)
        assert renaming == {"a": "a_2_", "a_2": "a_2_2"}


class TestCoComponents:
    def test_c4_splits_into_opposite_corners(self):
        assert co_components(C4()) == (("a", "c"), ("b", "d"))

    def test_complete_graph_splits_into_singletons(self):
        assert co_components(standard_graph("complete(3)")) == (("v1",), ("v2",), ("v3",))

    def test_edgeless_pair_is_one_block(self):
        assert co_components(standard_graph("E(2,0)")) == (("v1", "v2"),)

    def test_blocks_partition_and_are_co_connected(self):
        for g in all_graphs_up_to(5):
            blocks = co_components(g)
            flat = [v for b in blocks for v in b]
            assert sorted(flat) == list(g.vertices)
            comp = complement(g)
            for block in blocks:
                # connectivity inside the complement
                if len(block) == 1:
                    continue
                reached = {block[0]}
                frontier = [block[0]]
                while frontier:
                    v = frontier.pop()
                    for u in block:
                        if u not in reached and u in comp.neighbors(v):
                            reached.add(u)
                            frontier.append(u)
                assert reached == set(block)

    def test_vertex_subset_matches_the_induced_subgraph(self):
        for g in all_graphs_up_to(5):
            for mask in range(1 << len(g)):
                subset = [v for i, v in enumerate(g.vertices) if mask >> i & 1]
                assert co_components(g, subset) == co_components(induced(g, subset))

    def test_unknown_vertex_in_subset_rejected(self):
        with pytest.raises(ValueError, match="unknown vertex 'nope'"):
            co_components(C4(), {"a", "nope"})


class TestInduced:
    def test_adjacent_pair(self):
        assert induced(C4(), {"a", "b"}).edge_count == 1

    def test_opposite_corners(self):
        assert induced(C4(), {"a", "c"}).edge_count == 0

    def test_full_set_is_identity(self):
        l3 = L3()
        assert induced(l3, l3.vertices) == l3

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            induced(C4(), {"a", "nope"})


class TestFindEmbedding:
    def test_c4_into_itself(self):
        w = find_embedding(C4(), C4())
        assert w is not None
        assert sorted(w) == ["a", "b", "c", "d"]

    def test_c4_not_in_l3(self):
        assert find_embedding(standard_graph("C4"), standard_graph("L3")) is None

    def test_three_isolated_not_in_two_disjoint_edges(self):
        assert find_embedding(standard_graph("E(3,0)"), standard_graph("E(0,2)")) is None

    def test_witness_preserves_adjacency_and_non_adjacency(self):
        pattern = standard_graph("path(3)")
        host = standard_graph("C4")
        w = find_embedding(pattern, host)
        assert w is not None
        for u, v in itertools.combinations(pattern.vertices, 2):
            assert pattern.adjacent(u, v) == host.adjacent(w[u], w[v])
        assert len(set(w.values())) == len(pattern)

    def test_oracle_equivalence_on_small_instances(self):
        patterns = all_graphs_up_to(3)
        hosts = all_graphs_up_to(4)
        for p in patterns:
            for h in hosts:
                assert (find_embedding(p, h) is not None) == brute_force_embedding_exists(p, h)

    def test_triangle_not_into_path_of_three(self):
        # Only the middle vertex has degree two, so all three corners would
        # land on it: the chosen host vertex must leave the domains of later
        # pattern neighbours. (An edge into two isolated vertices would not
        # show this: no host vertex there has the degree.)
        assert find_embedding(standard_graph("complete(3)"), standard_graph("path(3)")) is None

    def test_non_edge_not_into_one_edge(self):
        # Both ends would have to land on one vertex: the non-neighbour
        # domains exclude the chosen host vertex itself.
        assert find_embedding(standard_graph("E(2,0)"), standard_graph("complete(2)")) is None

    def test_same_first_embedding_as_ordered_backtracking(self):
        # Forward checking prunes only branches without an embedding, so the
        # first embedding found is the one plain ordered backtracking finds.
        hosts = all_graphs_up_to(6)
        for p in all_graphs_up_to(4):
            for h in hosts:
                found = find_embedding(p, h)
                assert found == ordered_backtracking_embedding(p, h)
                if found is not None:
                    assert sorted(found) == list(p.vertices)
                    assert len(set(found.values())) == len(p)
                    for u, v in itertools.combinations(p.vertices, 2):
                        assert p.adjacent(u, v) == h.adjacent(found[u], found[v])

    def test_oracle_equivalence_spot_checks_on_larger_hosts(self):
        cases = [
            (standard_graph("C4"), standard_graph("path(6)")),
            (standard_graph("C4"), standard_graph("cycle(6)")),
            (standard_graph("L3"), standard_graph("cycle(6)")),
            (standard_graph("E(0,2)"), standard_graph("cycle(6)")),
            (standard_graph("complete(3)"), standard_graph("cycle(6)")),
        ]
        for p, h in cases:
            assert (find_embedding(p, h) is not None) == brute_force_embedding_exists(p, h)


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def recorded_inputs(module, run):
    """The arguments of every ``_forward_check`` call that run() makes
    through module, each also run by the kernel."""
    kernel, inputs = graphs._forward_check, []

    def record(*args):
        inputs.append(args)
        return kernel(*args)

    with mock.patch.object(module, "_forward_check", record):
        run()
    return inputs


class TestForwardCheck:
    """The kernel remembers the failed states of one call and replays their
    counts, so it must return what the memo-free kernel of the oracles
    returns, with fewer candidates actually tried."""

    def test_same_result_as_the_plain_kernel_for_both_callers(self):
        cycle5 = standard_graph("cycle(5)")
        targets = [t for n in (3, 4, 5) for t in all_graphs_up_to_iso(n)]
        patterns, hosts = all_graphs_up_to(4), all_graphs_up_to(5)

        def searches():
            for mode, max_len in (("group", 2), ("monoid", 3)):
                for strict in (False, True):
                    for target in targets:
                        phi_search(target, cycle5, mode, max_len, strict=strict)

        def embeddings():
            for pattern in patterns:
                for host in hosts:
                    find_embedding(pattern, host)

        inputs = recorded_inputs(commgraph, searches) + recorded_inputs(graphs, embeddings)
        fitting = sum(len(p) <= len(h) for p in patterns for h in hosts)  # the rest search nothing
        assert len(inputs) == 4 * len(targets) + fitting
        # Back to back in one sequence: a memo that outlived its call would
        # answer for the states of the next one.
        results = [graphs._forward_check(*args) for args in inputs]
        assert results == [plain_forward_check(*args) for args in inputs]

    def test_failed_states_are_not_searched_again(self):
        # The square, opposite vertices v1 and v2 first, into cycle(5) in the
        # monoid at bound 3: exhausted after 10,151 candidates, more than half
        # of them under states that had already failed.
        square = Graph(["v1", "v2", "v3", "v4"], [("v1", "v3"), ("v1", "v4"), ("v2", "v3"), ("v2", "v4")])
        calls = recorded_inputs(
            commgraph, lambda: phi_search(square, standard_graph("cycle(5)"), "monoid", 3)
        )
        (want_edge, masks, domains, strict), = calls
        counted, plain = CountingList(masks), CountingList(masks)
        result = graphs._forward_check(want_edge, counted, domains, strict)
        assert result == plain_forward_check(want_edge, plain, domains, strict)
        assert result[0] is None and 0 < counted.reads < plain.reads / 2


def test_a_search_deeper_than_the_recursion_limit_is_answered():
    # The levels sit on an explicit stack, not on Python's call stack. Every
    # level shares one row: zip truncates it to the later domains.
    n = 2 * sys.getrecursionlimit()
    want_edge = [[True] * (n - 1)] * n
    assert graphs._forward_check(want_edge, [1], [1] * n, False) == ([0] * n, n)


class TestCliqueNumber:
    @pytest.mark.parametrize(
        "g, expected",
        [
            (standard_graph("cycle(7)"), 2),
            (standard_graph("complete(7)"), 7),
            (connected_product(standard_graph("complete(3)"), standard_graph("C4")), 5),
        ],
        ids=["cycle(7)", "complete(7)", "complete(3)*C4"],
    )
    def test_beyond_the_small_sweep(self, g, expected):
        assert clique_number(g) == expected == brute_force_clique_number(g)


class WeakGraph(Graph):
    """A graph that takes weak references (``Graph`` has slots only)."""


@pytest.mark.parametrize(
    "search",
    [
        lambda host: find_embedding(standard_graph("C4"), host),
        lambda host: find_embedding(standard_graph("complete(3)"), host),
        clique_number,
    ],
    ids=["embedding-found", "embedding-none", "clique-number"],
)
def test_backtracking_leaves_no_reference_cycle(search):
    # With the cyclic collector off, the host goes as soon as its last
    # reference does: the search's stack of levels holds no cycle over it.
    host = WeakGraph(C4().vertices, C4().edges())
    freed = weakref.ref(host)
    gc.disable()
    try:
        search(host)
        del host
        assert freed() is None
    finally:
        gc.enable()


class TestTextFormat:
    def test_round_trip(self):
        g = C4()
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a square\nvertices a b c d\n\nedge a b # first\nedge b c\nedge c d\nedge d a\n"
        assert parse_graph(text) == C4()

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_graph("vertices a a\n", filename="bad.graph")
        assert "bad.graph:1" in str(err.value)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_graph("vertices a b\nedge a c\n")
        assert "unknown vertex" in str(err.value)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("vertices a b\nedge a a\n")

    def test_bad_name_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("vertices a-b\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("vertices a\nloop a\n")

    def test_missing_vertices_line_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("# nothing here\n")

    def test_empty_graph_round_trip(self):
        g = Graph([])
        assert parse_graph(format_graph(g)) == g
