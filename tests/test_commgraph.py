import itertools
from unittest import mock

import pytest

from graphgroups import (
    ElementFamily,
    Graph,
    GroupElement,
    Word,
    canonical_elements,
    commutation_graph,
    find_embedding,
    group_reduce,
    phi_search,
    standard_graph,
)
from graphgroups import commgraph
from graphgroups.commgraph import (
    _ball,
    _bounded_search,
    _commute_masks,
    _free_root,
    _table,
    commutes_along,
)
from graphgroups.trace import _follow_table
from oracles import (
    all_graphs_up_to,
    all_graphs_up_to_iso,
    brute_force_embedding_exists,
    cayley_ball_by_rewriting,
    follow_table_by_pairs,
    free_reduce,
    pairwise_commute_masks,
    raw_word_ball,
)


def C4():
    return Graph("a b c d".split(), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def L3():
    return Graph("w x y z".split(), [("w", "x"), ("x", "y"), ("y", "z")])


class TestElementFamily:
    def test_members_canonicalized(self):
        g = C4()
        fam = ElementFamily(g, "monoid", [Word.parse(g, "b a")])
        assert str(fam.members[0]) == "a b"

    def test_monoid_mode_rejects_inverses(self):
        g = C4()
        with pytest.raises(ValueError):
            ElementFamily(g, "monoid", [Word.parse(g, "a'")])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ElementFamily(C4(), "ring", [])


class TestCommutationGraph:
    def test_generators_realize_their_own_graph(self):
        g = C4()
        fam = ElementFamily(g, "group", [Word.parse(g, v) for v in g.vertices])
        cg = commutation_graph(fam)
        assert cg.edges() == (("1", "2"), ("1", "4"), ("2", "3"), ("3", "4"))

    def test_duplicate_elements_commute(self):
        g = C4()
        fam = ElementFamily(g, "monoid", [Word.parse(g, "a"), Word.parse(g, "a")])
        assert commutation_graph(fam).edges() == (("1", "2"),)

    def test_non_adjacent_generators_do_not_commute(self):
        g = L3()
        fam = ElementFamily(g, "monoid", [Word.parse(g, "x"), Word.parse(g, "z")])
        assert commutation_graph(fam).edge_count == 0


class TestCanonicalElements:
    def test_monoid_pool_counts_classes(self):
        g = C4()
        pool = canonical_elements(g, "monoid", 2)
        # 1 empty + 4 single letters + 12 length-two classes
        assert len(pool) == 17

    def test_group_ball_matches_rewriting_oracle(self):
        g = L3()
        pool = canonical_elements(g, "group", 2)
        assert len(pool) == cayley_ball_by_rewriting(g, 2)
        assert len(pool) == 53

    def test_ordering_by_length_then_lex(self):
        g = C4()
        pool = canonical_elements(g, "group", 1)
        rendered = [str(e) for e in pool]
        assert rendered == ["", "a", "a'", "b", "b'", "c", "c'", "d", "d'"]

    @pytest.mark.parametrize(
        "name", ["C4", "L3", "cycle(5)", "path(5)", "E(2,2)", "complete(4)", "E(3,0)", "cycle(6)"]
    )
    @pytest.mark.parametrize("mode, max_len", [("monoid", 4), ("group", 3)])
    def test_matches_raw_word_oracle_in_order(self, name, mode, max_len):
        g = standard_graph(name)
        pool = canonical_elements(g, mode, max_len)
        assert [e.letters for e in pool] == raw_word_ball(g, mode, max_len)
        assert all(type(e) is (Word if mode == "monoid" else GroupElement) for e in pool)

    @pytest.mark.parametrize(
        "name", ["C4", "L3", "cycle(5)", "path(5)", "E(2,2)", "complete(4)", "E(3,0)", "cycle(6)"]
    )
    @pytest.mark.parametrize("mode, max_len", [("monoid", 4), ("group", 3)])
    def test_follow_masks_match_insertion(self, name, mode, max_len):
        # Bit l of follow(w), stepped along w from every letter, is set
        # exactly when inserting l into w's stack appends it; and the ball
        # lists each element as its parent and last letter.
        g = standard_graph(name)
        letters, index, keep, up = _follow_table(g)
        ball = list(_ball(g, mode, max_len))
        for w, parent, last in ball:
            assert w == (ball[parent][0] + (last,) if w else ())
            follow = -1
            for i in map(index.get, w):
                follow = keep[i] | follow & up[i]
            for i, l in enumerate(letters):
                appended = GroupElement._inserted(g, w, (l,)).letters == w + (l,)
                assert bool(follow >> i & 1) == appended

    def test_follow_table_matches_pairwise_construction(self):
        for g in all_graphs_up_to(6):
            assert _follow_table(g) == follow_table_by_pairs(g)

    @pytest.mark.parametrize("mode", ["monoid", "group"])
    def test_radius_zero_is_the_identity(self, mode):
        assert [e.letters for e in canonical_elements(C4(), mode, 0)] == [()]

    @pytest.mark.parametrize("mode", ["monoid", "group"])
    @pytest.mark.parametrize("max_len", [-1, -5])
    def test_negative_radius_rejected(self, mode, max_len):
        with pytest.raises(ValueError):
            canonical_elements(C4(), mode, max_len)


class TestCommutesAlong:
    def test_generators_commute_along_their_graph(self):
        g = C4()
        members = [Word.parse(g, v) for v in g.vertices]
        assert commutes_along(g, "monoid", members)
        assert commutes_along(g, "group", [group_reduce(m) for m in members])

    def test_order_breaking_the_pattern_fails(self):
        # In the order a c b d the non-commuting a, c land on the target's
        # edge v1-v2; the square relabelled to that order accepts it.
        g = C4()
        members = [Word.parse(g, v) for v in "a c b d".split()]
        assert not commutes_along(standard_graph("C4"), "monoid", members)
        relabelled = Graph("1 2 3 4".split(), [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")])
        assert commutes_along(relabelled, "monoid", members)


class TestPhiSearch:
    def test_generators_realize_c4_at_length_one(self):
        g = standard_graph("C4")
        report = phi_search(g, g, "monoid", 1)
        assert report.found
        witness = {v: str(e) for v, e in report.witness.items()}
        assert witness == {"v1": "v1", "v2": "v2", "v3": "v3", "v4": "v4"}

    def test_exhausted_when_no_induced_square(self):
        report = phi_search(standard_graph("C4"), standard_graph("L3"), "group", 2)
        assert report.status == "exhausted"
        assert report.bound == 2

    def test_targets_with_an_induced_square_are_exhausted_into_cycle5(self):
        # The paper's theorem: cycle(5) has no induced square, so no four
        # elements of its graph group or monoid commute as a square, and a
        # realization of a target restricts to one of each induced square.
        square, cycle5 = standard_graph("C4"), standard_graph("cycle(5)")
        assert not brute_force_embedding_exists(square, cycle5)
        small = [t for n in (4, 5) for t in all_graphs_up_to_iso(n)]
        targets = [t for t in small if brute_force_embedding_exists(square, t)]
        assert len(targets) == 7
        for target in targets:
            for mode, max_len in (("group", 2), ("monoid", 3)):
                for strict in (False, True):
                    report = phi_search(target, cycle5, mode, max_len, strict=strict)
                    assert report.status == "exhausted"

    def test_empty_target_vacuously_found(self):
        report = phi_search(Graph([]), C4(), "group", 1)
        assert report.found
        assert report.witness == {}

    def test_monotone_in_bound(self):
        # Found at a bound stays found at every larger bound.
        cases = [
            (Graph(["p", "q"], [("p", "q")]), C4(), "monoid"),
            (standard_graph("C4"), standard_graph("C4"), "group"),
        ]
        for target, ambient, mode in cases:
            assert phi_search(target, ambient, mode, 1).found
            assert phi_search(target, ambient, mode, 2).found
            assert phi_search(target, ambient, mode, 3).found

    def test_found_reports_are_reverified_and_deterministic(self):
        g = standard_graph("C4")
        r1 = phi_search(g, g, "group", 1)
        r2 = phi_search(g, g, "group", 1)
        assert {v: str(e) for v, e in r1.witness.items()} == {
            v: str(e) for v, e in r2.witness.items()
        }

    def test_bad_max_len_rejected(self):
        with pytest.raises(ValueError):
            phi_search(C4(), C4(), "group", 0)

    def test_serialization_format(self):
        g = standard_graph("C4")
        found = phi_search(g, g, "monoid", 1)
        lines = found.serialize().splitlines()
        assert lines[0] == "status=found"
        assert lines[1] == "bound=1"
        assert lines[2:] == [
            "witness v1=v1",
            "witness v2=v2",
            "witness v3=v3",
            "witness v4=v4",
        ]
        exhausted = phi_search(standard_graph("C4"), standard_graph("L3"), "group", 1)
        assert exhausted.serialize() == "status=exhausted\nbound=1\n"


class TestStrictMode:
    def test_single_vertex_target_found_strict(self):
        target = Graph(["p"])
        report = phi_search(target, C4(), "group", 1, strict=True)
        assert report.found

    def test_square_witnesses_are_automatically_injective(self):
        g = standard_graph("C4")
        report = phi_search(g, g, "group", 1)
        values = [e.letters for e in report.witness.values()]
        assert len(set(values)) == len(values)

    def test_strict_refuses_the_repeats_default_takes(self):
        # Three pairwise-commuting elements over one vertex at length 1: the
        # identity and the letter, repeated, do; two distinct ones do not.
        target, ambient = standard_graph("complete(3)"), Graph(["x"])
        assert phi_search(target, ambient, "monoid", 1).found
        assert phi_search(target, ambient, "monoid", 1, strict=True).status == "exhausted"

    def test_strict_and_default_agree_on_square_target(self):
        target = standard_graph("C4")
        for ambient in all_graphs_up_to(4):
            loose = phi_search(target, ambient, "group", 2)
            strict = phi_search(target, ambient, "group", 2, strict=True)
            assert loose.status == strict.status


class TestRealizabilityVsEmbedding:
    def test_two_disjoint_edges_realizable_without_embedding(self):
        # Repeating a generator (or taking its powers) realizes the
        # two-disjoint-edges commutation pattern inside the free monoid on
        # two letters, although the four-vertex pattern graph cannot embed
        # into a two-vertex ambient graph. Only graphs whose every vertex has
        # degree n-2 tie realizability to embedding.
        target = standard_graph("E(0,2)")
        ambient = Graph(["x", "y"])
        report = phi_search(target, ambient, "monoid", 2)
        assert report.found
        assert find_embedding(target, ambient) is None
        strict = phi_search(target, ambient, "monoid", 2, strict=True)
        assert strict.found


class TestCommuteMasks:
    @pytest.mark.parametrize(
        "name, mode, max_len",
        [
            ("C4", "group", 3),
            ("path(4)", "group", 3),
            ("path(3)", "group", 4),
            ("C4", "monoid", 4),
            ("path(4)", "monoid", 4),
            ("cycle(5)", "monoid", 4),
        ],
    )
    def test_projection_keys_match_pairwise_tests(self, name, mode, max_len):
        pool = canonical_elements(standard_graph(name), mode, max_len)
        assert _commute_masks(mode, pool) == pairwise_commute_masks(mode, pool)

    def test_monoid_masks_match_pairwise_tests_on_small_graphs(self):
        # Every graph on five vertices, up to isomorphism, at the target
        # sweep's monoid bound.
        for graph in all_graphs_up_to_iso(5):
            pool = canonical_elements(graph, "monoid", 3)
            assert _commute_masks("monoid", pool) == pairwise_commute_masks("monoid", pool)

    @pytest.mark.parametrize("mode, max_len", [("group", 2), ("monoid", 3)])
    def test_each_pattern_is_keyed_once_per_call(self, mode, max_len):
        # Keys are compared within one pair only, so each pair x, y relabels
        # its projections (x as a, y as b, signs kept in the group), and one
        # call keys each distinct pattern once, whichever pairs share it. A
        # pool of the longest powers of one letter adds their prefixes to the
        # tree as nodes, whose shorter powers no member carries: those are
        # not keyed.
        graph = standard_graph("cycle(5)")
        ball = canonical_elements(graph, mode, max_len)

        def patterns(words):
            found = set()
            for x, y in graph.non_adjacent_pairs():
                free = {x: "a", y: "b"}
                for w in words:
                    kept = tuple((free[b], s) for b, s in w if b in free)
                    found.add(kept if mode == "group" else tuple(b for b, _ in kept))
            return found

        powers = [e for e in ball if len(e.letters) == max_len and len(set(e.letters)) == 1]
        prefixes = {e.letters[:k] for e in powers for k in range(max_len)}
        assert patterns(prefixes) - patterns(e.letters for e in powers)
        for pool in (ball, powers):
            carried = patterns(e.letters for e in pool)
            wrapped = mock.patch.object(commgraph, "_projection_key", wraps=commgraph._projection_key)
            with wrapped as key:
                _commute_masks(mode, pool)
                assert key.call_count == len(carried)
                _commute_masks(mode, pool)  # the memo lives for one call
                assert key.call_count == 2 * len(carried)

    @pytest.mark.parametrize("mode, max_len", [("group", 2), ("monoid", 3)])
    def test_masks_match_pairwise_tests_out_of_ball_order(self, mode, max_len):
        # The prefix tree must not rest on _ball order: children before their
        # parents, repeated members, and members whose prefixes are not members.
        for graph in all_graphs_up_to(4):
            ball = canonical_elements(graph, mode, max_len)
            longest = [e for e in ball if len(e.letters) == max_len]
            for pool in (ball[::-1], ball + ball[::3], longest):
                assert _commute_masks(mode, pool) == pairwise_commute_masks(mode, pool)

    def test_group_masks_match_pairwise_tests_without_the_prefixes(self):
        # The length-3 members of cycle(5)'s group ball alone: no proper
        # prefix is a member, and the exact test runs on the pairs keys leave.
        ball = canonical_elements(standard_graph("cycle(5)"), "group", 3)
        pool = [e for e in ball if len(e.letters) == 3]
        assert _commute_masks("group", pool) == pairwise_commute_masks("group", pool)

    def test_exact_test_clears_pair_with_trivial_projections(self):
        # Every rank-2 projection of g is trivial (acceptance test 10), yet g
        # does not commute with x: only the exact group test tells.
        g = Graph(["x", "y", "z"], [("y", "z")])
        pool = [group_reduce(Word.parse(g, w)) for w in ("x y x' z x y' x' z'", "x")]
        assert _commute_masks("group", pool) == [0b01, 0b10]

    @pytest.mark.parametrize("max_len", [1, 2])
    def test_group_masks_match_pairwise_tests_on_small_graphs(self, max_len):
        # Every graph on at most five vertices: every ambient of the search
        # workload, each up to isomorphism. No element is longer than 2
        # letters, so the keys decide every pair and no exact test runs.
        def no_exact_test(u, v):
            raise AssertionError("exact test run at bound <= 2")

        with mock.patch.object(commgraph, "group_commute", no_exact_test):
            for graph in all_graphs_up_to(5):
                pool = canonical_elements(graph, "group", max_len)
                assert _commute_masks("group", pool) == pairwise_commute_masks("group", pool)

    def test_group_masks_match_pairwise_tests_at_bound_three(self):
        # Pools mixing elements of length <= 2 with longer ones: the exact
        # test must still run on every pair with a longer element.
        for graph in all_graphs_up_to(4):
            pool = canonical_elements(graph, "group", 3)
            assert _commute_masks("group", pool) == pairwise_commute_masks("group", pool)

    def test_projection_keys_alone_are_exact_at_bound_two(self):
        """Step 1 of ``_commute_masks`` alone (the exact test of step 3
        patched to answer yes) gives the exact masks at bound 2, on every
        graph on at most four vertices, and that is enough for every graph.

        Take u and v of length <= 2, and S the union of their supports, so
        |S| <= 4. Whether they commute is decided in G(Γ[S]), a retract of
        G(Γ). Their keys on pairs inside S are the same in Γ and in Γ[S]. On
        a pair with one vertex in S, both projections are powers of one
        letter or trivial, so the keys never separate u and v there.
        """
        with mock.patch.object(commgraph, "group_commute", lambda u, v: True):
            for graph in all_graphs_up_to(4):
                pool = canonical_elements(graph, "group", 2)
                assert _commute_masks("group", pool) == pairwise_commute_masks("group", pool)

    def test_projection_keys_alone_are_not_exact_at_bound_three(self):
        # v1 and v3' v2' v3 agree on every key, since on each non-adjacent
        # pair one projection is trivial: v3' v3 on {v1, v3}, and v1's on
        # {v2, v3}. They do not commute, so at bound 3 the exact test is needed.
        graph = Graph(["v1", "v2", "v3"], [("v1", "v2")])
        pool = [group_reduce(Word.parse(graph, w)) for w in ("v1", "v3' v2' v3")]
        assert pool[1].letters == (("v3", -1), ("v2", -1), ("v3", 1))
        with mock.patch.object(commgraph, "group_commute", lambda u, v: True):
            assert _commute_masks("group", pool) == [0b11, 0b11]
        assert _commute_masks("group", pool) == pairwise_commute_masks("group", pool) == [0b01, 0b10]

    def test_totally_commuting_pairs_skip_the_exact_test(self):
        pool = canonical_elements(standard_graph("complete(3)"), "group", 2)
        with mock.patch.object(commgraph, "group_commute", wraps=commgraph.group_commute) as exact:
            masks = _commute_masks("group", pool)
        assert masks == [(1 << len(pool)) - 1] * len(pool)
        assert exact.call_count == 0

    def test_exact_test_runs_on_the_pairs_keys_and_supports_leave(self):
        # The keys leave the pairs whose projections commute in each rank-2
        # free group; of those, the exact test (one group_commute call) runs
        # on the pairs with a support vertex of one not adjacent to one of
        # the other, and an element longer than 2 letters.
        graph = standard_graph("path(3)")
        pool = canonical_elements(graph, "group", 3)
        with mock.patch.object(commgraph, "group_commute", wraps=commgraph.group_commute) as exact:
            _commute_masks("group", pool)

        def projections_commute(u, v, x, y):
            p, q = (tuple(l for l in e.letters if l[0] in (x, y)) for e in (u, v))
            return free_reduce(p + q) == free_reduce(q + p)

        left = 0
        for u, v in itertools.combinations(pool, 2):
            keys_agree = all(projections_commute(u, v, x, y) for x, y in graph.non_adjacent_pairs())
            total = all(graph.adjacent(x, y) for x, _ in u.letters for y, _ in v.letters)
            long = max(len(u.letters), len(v.letters)) > 2
            left += keys_agree and not total and long
        assert left > 0
        assert exact.call_count == left

    def test_free_root_is_the_least_period_prefix(self):
        # Every word over the signed letters of two bases, up to length 6.
        # A word's least period is the first shift at which it recurs in its
        # square, and that prefix is its primitive root in the free monoid.
        code = {("x", 1): "x", ("x", -1): "X", ("y", 1): "y", ("y", -1): "Y"}
        for n in range(1, 7):
            for letters in itertools.product(code, repeat=n):
                s = "".join(code[l] for l in letters)
                assert _free_root(letters) == letters[: (s + s).find(s, 1)]
        assert _free_root(()) == ()


def reference_search(target, pool, masks, strict=False):
    """Depth-first search over the whole pool, with no look-ahead, repeats
    allowed unless ``strict``: the first witness as pool indices (None when
    exhausted) and the candidates tried."""
    verts = target.vertices
    edge = [[target.adjacent(u, v) for v in verts] for u in verts]
    full = (1 << len(pool)) - 1
    examined = 0

    def dfs(assign):
        nonlocal examined
        allowed = full
        for j, a in enumerate(assign):
            allowed &= masks[a] if edge[len(assign)][j] else full ^ masks[a]
            if strict:
                allowed &= full ^ (1 << a)
        while allowed:
            c = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            examined += 1
            assign.append(c)
            if len(assign) == len(verts) or dfs(assign):
                return True
            assign.pop()
        return False

    found = []
    return (found if dfs(found) else None), examined


class TestClassRepresentatives:
    """The default search tries one element per commutation class, and both
    modes check forward; each must still report the first witness of the
    plain search over the whole pool, having tried no more candidates."""

    def check(self, targets, ambient, mode, max_len):
        table = _table(ambient, mode, max_len)
        pool = table[0]
        masks = pairwise_commute_masks(mode, pool)
        for target in targets:
            for strict in (False, True):
                found, examined = reference_search(target, pool, masks, strict)
                assignment, candidates = _bounded_search(table, target, strict)
                assert assignment == (None if found is None else [pool[c] for c in found])
                assert candidates <= examined

    def test_targets_into_cycle5(self):
        targets = [t for n in (3, 4, 5) for t in all_graphs_up_to_iso(n)]
        self.check(targets, standard_graph("cycle(5)"), "group", 2)
        self.check(targets, standard_graph("cycle(5)"), "monoid", 3)

    def test_square_into_small_ambients(self):
        for ambient in all_graphs_up_to(5):
            self.check([standard_graph("C4")], ambient, "group", 2)
            self.check([standard_graph("C4")], ambient, "monoid", 2)


class TestTable:
    """The pool, masks and start domain depend on the ambient, mode and
    bound alone, so one table serves every target."""

    @pytest.mark.parametrize("mode, max_len", [("group", 2), ("monoid", 3)])
    def test_one_table_serves_many_targets(self, mode, max_len):
        cycle5 = standard_graph("cycle(5)")
        table = _table(cycle5, mode, max_len)
        for target in (t for n in (3, 4, 5) for t in all_graphs_up_to_iso(n)):
            for strict in (False, True):
                assignment, candidates = _bounded_search(table, target, strict)
                report = phi_search(target, cycle5, mode, max_len, strict=strict)
                witness = None if assignment is None else dict(zip(target.vertices, assignment))
                assert (report.found, report.witness, report.candidates) == (
                    assignment is not None, witness, candidates
                )
        assert table == _table(cycle5, mode, max_len)
