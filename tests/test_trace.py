import random
import re

import pytest

from graphgroups import (
    ElementFamily,
    Graph,
    GroupElement,
    Word,
    embed_into_product,
    max_free_commutative_rank,
    primitive_root,
    project_rho,
    project_sigma,
    standard_graph,
    trace_commute,
    trace_equal,
    trace_normal_form,
)
from oracles import (
    all_graphs_up_to,
    all_words,
    brute_force_clique_number,
    brute_force_primitive_root,
    greedy_lex_normal_letters,
    swap_cancel_closure,
)


def C4():
    return Graph("a b c d".split(), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def L3():
    return Graph("w x y z".split(), [("w", "x"), ("x", "y"), ("y", "z")])


def w(graph, text):
    return Word.parse(graph, text)


class TestWord:
    def test_parse_and_render(self):
        g = C4()
        word = w(g, "a b a' c")
        assert word.letters == (("a", 1), ("b", 1), ("a", -1), ("c", 1))
        assert str(word) == "a b a' c"

    def test_parse_rejects_unknown_vertex(self):
        with pytest.raises(ValueError):
            w(C4(), "a q")

    def test_parse_rejects_double_apostrophe(self):
        with pytest.raises(ValueError):
            w(C4(), "a''")

    def test_concatenation_and_power(self):
        g = C4()
        assert (w(g, "a b") * w(g, "c")).letters == w(g, "a b c").letters
        assert (w(g, "a c") ** 2).letters == w(g, "a c a c").letters

    def test_inverse_reverses_and_flips(self):
        g = C4()
        assert str(w(g, "a b'").inverse()) == "b a'"

    def test_monoid_ops_reject_inverse_letters(self):
        g = C4()
        with pytest.raises(ValueError):
            project_rho(w(g, "a'"), "a")
        with pytest.raises(ValueError):
            trace_equal(w(g, "a'"), w(g, "a'"))


    @pytest.mark.parametrize("sign", [1.5, -1.9, 0, 2])
    @pytest.mark.parametrize("constructor", [Word, GroupElement])
    def test_rejects_sign_other_than_plus_or_minus_one(self, constructor, sign):
        with pytest.raises(ValueError):
            constructor(C4(), [("a", 1), ("b", sign)])

    def test_letters_shared_when_given_as_string_based_tuples(self):
        g = Graph(["1", "2"], [])
        given = [("1", 1), ("2", -1)]
        assert all(a is b for a, b in zip(Word(g, given).letters, given))

    @pytest.mark.parametrize("constructor", [Word, GroupElement])
    def test_letters_coerced_to_string_based_tuples(self, constructor):
        g = Graph(["1", "2"], [])
        assert constructor(g, [[1, 1], (2, -1)]).letters == (("1", 1), ("2", -1))

    def test_tuple_of_letters_kept_as_the_same_object(self):
        given = (("a", 1), ("b", -1), ("a", 1))
        assert Word(C4(), given).letters is given

    @pytest.mark.parametrize("letter", [5, ("a",), ("a", 1, 2), "ab", "a"])
    @pytest.mark.parametrize("constructor", [Word, GroupElement])
    def test_rejects_a_letter_that_is_not_a_pair(self, constructor, letter):
        message = f"letter must be a (vertex, sign) pair, got {letter!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            constructor(C4(), [("a", 1), letter])

    @pytest.mark.parametrize("letter, name", [(("q", 1), "'q'"), ((7, -1), "'7'")])
    @pytest.mark.parametrize("constructor", [Word, GroupElement])
    def test_rejects_an_unknown_vertex(self, constructor, letter, name):
        with pytest.raises(ValueError, match=f"unknown vertex {name}"):
            constructor(C4(), [("a", 1), ("b", -1)] * 8 + [letter])

    @pytest.mark.parametrize("given", [[("a", 1), ("a", 2)], [("a", 2), ("a", 1)]])
    @pytest.mark.parametrize("constructor", [Word, GroupElement])
    def test_rejects_a_bad_sign_beside_a_good_one_of_its_base(self, constructor, given):
        with pytest.raises(ValueError, match="letter sign must be"):
            constructor(C4(), given)

    def test_words_over_equal_distinct_graphs_multiply_and_compare_equal(self):
        g, h = C4(), C4()
        assert g is not h
        u, v = w(g, "a b"), w(h, "a b")
        assert u == v and hash(u) == hash(v)
        assert (u * v).letters == (u * u).letters
        assert trace_equal(u, v) and trace_commute(u, v)
        assert embed_into_product(g).evaluate(v) == embed_into_product(g).evaluate(u)
        x, y = GroupElement(g, u.letters), GroupElement(h, v.letters)
        assert x == y and x * y == x * x
        family = ElementFamily(g, "monoid", [u, v])
        assert family.members == (u, v)


class TestProjections:
    def test_rho_counts_occurrences(self):
        g = C4()
        assert project_rho(w(g, "a b a b"), "a") == 2
        assert project_rho(w(g, ""), "a") == 0
        assert project_rho(w(g, "b c d"), "a") == 0

    def test_sigma_extracts_subsequence(self):
        g = C4()
        assert str(project_sigma(w(g, "a b c a"), "a", "c")) == "a c a"
        assert str(project_sigma(w(g, "b d"), "a", "c")) == ""

    def test_sigma_rejects_adjacent_or_equal_pair(self):
        g = C4()
        with pytest.raises(ValueError):
            project_sigma(w(g, "a c"), "a", "b")
        with pytest.raises(ValueError):
            project_sigma(w(g, "a c"), "a", "a")

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ("q", "a", "unknown vertex 'q'"),
            ("a", "q", "unknown vertex 'q'"),
            ("q", "r", "unknown vertex 'q'"),
            ("a", "a", "pair ('a', 'a') is not a non-adjacent pair"),
            ("a", "b", "pair ('a', 'b') is not a non-adjacent pair"),
        ],
    )
    def test_sigma_error_messages(self, x, y, message):
        # An unknown vertex is named before the pair is judged, x first.
        with pytest.raises(ValueError) as info:
            project_sigma(w(C4(), "a c"), x, y)
        assert str(info.value) == message

    def test_projections_are_morphisms(self):
        # Projection of a concatenation equals concatenation of projections.
        rng = random.Random(97531)
        g = L3()
        words = list(all_words(g, 3))
        for _ in range(300):
            u, v = rng.choice(words), rng.choice(words)
            for x in g.vertices:
                assert project_rho(u * v, x) == project_rho(u, x) + project_rho(v, x)
            for x, y in g.non_adjacent_pairs():
                assert (
                    project_sigma(u * v, x, y).letters
                    == (project_sigma(u, x, y) * project_sigma(v, x, y)).letters
                )


class TestTraceEqual:
    def test_defining_relation(self):
        g = C4()
        assert trace_equal(w(g, "a b"), w(g, "b a"))

    def test_non_adjacent_pair_does_not_commute(self):
        g = C4()
        assert not trace_equal(w(g, "a c"), w(g, "c a"))

    def test_length_two_words_fall_into_twelve_classes(self):
        g = C4()
        words = [Word(g, ((x, 1), (y, 1))) for x in g.vertices for y in g.vertices]
        classes = []
        for u in words:
            for cls in classes:
                if trace_equal(u, cls[0]):
                    cls.append(u)
                    break
            else:
                classes.append([u])
        assert len(classes) == 12

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trace_equal(w(C4(), "a"), w(L3(), "x"))


class TestNormalForm:
    def test_commuting_pair_sorted(self):
        g = C4()
        assert str(trace_normal_form(w(g, "b a"))) == "a b"

    def test_non_commuting_pair_kept(self):
        g = C4()
        assert str(trace_normal_form(w(g, "c a"))) == "c a"

    def test_idempotent(self):
        g = L3()
        for word in all_words(g, 4):
            nf = trace_normal_form(word)
            assert trace_normal_form(nf) == nf

    def test_normal_form_equality_matches_trace_equal(self):
        g = L3()
        words = list(all_words(g, 3))
        for u in words:
            for v in words:
                assert trace_equal(u, v) == (
                    trace_normal_form(u) == trace_normal_form(v)
                )

    def test_normal_form_is_lex_least_in_class(self):
        # Oracle: generate the whole commutation class by swaps.
        g = C4()
        for word in all_words(g, 4):
            cls = {word.letters}
            stack = [word.letters]
            while stack:
                cur = stack.pop()
                for i in range(len(cur) - 1):
                    a, b = cur[i], cur[i + 1]
                    if a[0] != b[0] and g.adjacent(a[0], b[0]):
                        nw = cur[:i] + (b, a) + cur[i + 2 :]
                        if nw not in cls:
                            cls.add(nw)
                            stack.append(nw)
            assert trace_normal_form(word).letters == min(cls)

    @pytest.mark.parametrize("graph", [C4(), L3()], ids=["C4", "L3"])
    def test_matches_greedy_oracle_up_to_length_six(self, graph):
        for word in all_words(graph, 6):
            expected = greedy_lex_normal_letters(graph, word.letters)
            assert trace_normal_form(word).letters == expected


class TestTraceCommute:
    def test_edge_generators_commute(self):
        g = C4()
        assert trace_commute(w(g, "a"), w(g, "b"))

    def test_powers_of_common_root_commute(self):
        g = C4()
        u, v = w(g, "a c a c"), w(g, "a c")
        assert trace_commute(u, v)
        assert trace_equal(u * v, v * u)

    def test_distinct_roots_fail(self):
        g = C4()
        u, v = w(g, "a c"), w(g, "c a")
        assert not trace_commute(u, v)
        assert not trace_equal(u * v, v * u)

    def test_matches_definition_exhaustively(self):
        g = C4()
        words = list(all_words(g, 3))
        for u in words:
            for v in words:
                assert trace_commute(u, v) == trace_equal(u * v, v * u)


class TestPrimitiveRoot:
    def brute_force_root(self, word):
        # Oracle: scan all words of each dividing length for an exact power.
        g = word.graph
        n = len(word)
        for k in range(n, 1, -1):
            if n % k:
                continue
            for candidate in all_words(g, n // k):
                if len(candidate) == n // k and trace_equal(candidate**k, word):
                    return k
        return 1

    def test_single_letter(self):
        g = C4()
        root, exp = primitive_root(w(g, "a"))
        assert (str(root), exp) == ("a", 1)

    def test_commuting_square(self):
        g = C4()
        root, exp = primitive_root(w(g, "a b a b"))
        assert exp == 2
        assert trace_equal(root, w(g, "a b"))

    def test_non_commuting_cube(self):
        g = C4()
        root, exp = primitive_root(w(g, "a c a c a c"))
        assert (str(root), exp) == ("a c", 3)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            primitive_root(w(C4(), ""))

    def test_power_reconstructs_and_exponent_maximal(self):
        g = C4()
        for word in all_words(g, 4):
            if len(word) == 0:
                continue
            root, exp = primitive_root(word)
            assert trace_equal(root**exp, word)
            assert exp == self.brute_force_root(word)

    def test_matches_rewriting_oracle_up_to_length_six(self):
        for g in (C4(), L3()):
            for word in all_words(g, 6):
                if len(word) == 0:
                    continue
                root, exp = primitive_root(word)
                oracle_root, oracle_exp = brute_force_primitive_root(g, word.letters)
                assert exp == oracle_exp
                assert oracle_root in swap_cancel_closure(g, root.letters)

    def test_root_itself_primitive_up_to_length_six(self):
        g = L3()
        rng = random.Random(1313)
        words = [word for word in all_words(g, 3) if len(word) > 0]
        for word in rng.sample(words, 30):
            root, exp = primitive_root(word**2)
            root2, exp2 = primitive_root(root)
            assert exp2 == 1


class TestProductEmbedding:
    def test_l3_coordinate_counts(self):
        table = embed_into_product(L3())
        assert table.rank1_count == 4
        assert table.rank2_count == 3
        assert table.sigma_coords == (("w", "y"), ("w", "z"), ("x", "z"))

    def test_complete_graph_has_no_rank2_coordinates(self):
        table = embed_into_product(standard_graph("complete(3)"))
        assert (table.rank1_count, table.rank2_count) == (3, 0)

    def test_coordinates_separate_exactly_the_equality_classes(self):
        g = L3()
        table = embed_into_product(g)
        words = list(all_words(g, 4))
        sig = {u.letters: table.evaluate(u) for u in words}
        nf = {u.letters: trace_normal_form(u).letters for u in words}
        pairing = {}
        for u in words:
            assert pairing.setdefault(sig[u.letters], nf[u.letters]) == nf[u.letters]
        rng = random.Random(777)
        for _ in range(500):
            u, v = rng.choice(words), rng.choice(words)
            assert trace_equal(u, v) == (sig[u.letters] == sig[v.letters])


class TestMaxFreeCommutativeRank:
    def test_c4_is_triangle_free(self):
        assert max_free_commutative_rank(standard_graph("C4")) == 2

    def test_complete_four(self):
        assert max_free_commutative_rank(standard_graph("complete(4)")) == 4

    def test_edgeless(self):
        assert max_free_commutative_rank(standard_graph("E(3,0)")) == 1

    def test_matches_subset_scan_oracle(self):
        for g in all_graphs_up_to(5):
            assert max_free_commutative_rank(g) == brute_force_clique_number(g)
