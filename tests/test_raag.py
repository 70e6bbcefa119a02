import contextlib
import itertools
import random
from unittest import mock

import pytest

from graphgroups import (
    Graph,
    GroupElement,
    Word,
    canonical_elements,
    centralizer_witness,
    commutes_totally,
    cyclic_reduce,
    group_commute,
    group_equal,
    group_reduce,
    is_cyclically_reduced,
    multiply_factorize,
    pure_factors,
    standard_graph,
    support,
)
from graphgroups import raag
from graphgroups.raag import _centralizer_structure
from oracles import (
    all_graphs_up_to,
    bfs_geodesic_length,
    brute_force_primitive_root,
    commutator_trivial,
    complement_components,
    free_reduce,
    peel_cyclic_reduce,
    signed_alphabet,
    swap_cancel_closure,
    two_pass_reduce,
    words_equivalent,
)


def C4():
    return Graph("a b c d".split(), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def L3():
    return Graph("w x y z".split(), [("w", "x"), ("x", "y"), ("y", "z")])


def el(graph, text):
    return group_reduce(Word.parse(graph, text))


def random_word(rng, graph, max_len):
    alphabet = signed_alphabet(graph)
    return tuple(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


def ball(graph, radius):
    alphabet = signed_alphabet(graph)
    elements = {
        GroupElement(graph, combo)
        for length in range(radius + 1)
        for combo in itertools.product(alphabet, repeat=length)
    }
    return sorted(elements, key=lambda e: (e.length, e.letters))


def bounded_centralizer_reference(g, k):
    """The former bounded search: exponent vectors with every |c_i| <=
    len(k) + len(h), smallest first, until k2 = k1^-1 p^-1 k p commutes
    totally with h. Returns (exponents, k2), or None past the bound."""
    decomposition = cyclic_reduce(g)
    p, h = decomposition.p, decomposition.h
    roots = [root for root, _ in pure_factors(h).factors]
    q = p.inverse() * k * p
    bound = k.length + h.length
    order = sorted(range(-bound, bound + 1), key=lambda c: (abs(c), c < 0))
    for combo in itertools.product(order, repeat=len(roots)):
        k1 = GroupElement.identity(g.graph)
        for root, c in zip(roots, combo):
            k1 = k1 * root**c
        k2 = k1.inverse() * q
        if commutes_totally(k2, h):
            return combo, k2
    return None


class TestGroupReduce:
    def test_commuting_conjugation_cancels(self):
        assert str(el(C4(), "a b a'")) == "b"

    def test_non_commuting_conjugation_stays(self):
        g = L3()
        assert el(g, "x z x'").length == 3

    def test_empty_word_is_identity(self):
        e = el(C4(), "")
        assert e.is_identity
        assert e.length == 0

    def test_list_letters_give_their_tuple_twin(self):
        g = standard_graph("C4")
        x, twin = GroupElement(g, [["v1", 1]]), GroupElement(g, [("v1", 1)])
        assert x == twin
        assert hash(x) == hash(twin)
        assert centralizer_witness(x, x).found

    def test_geodesic_lengths_match_bfs_oracle_small(self):
        g = C4()
        alphabet = signed_alphabet(g)
        for length in range(4):
            for combo in itertools.product(alphabet, repeat=length):
                assert GroupElement(g, combo).length == bfs_geodesic_length(g, combo)

    @pytest.mark.parametrize(
        "graph", [C4(), L3(), standard_graph("E(2,2)")], ids=["C4", "L3", "E(2,2)"]
    )
    def test_matches_two_pass_oracle_up_to_length_four(self, graph):
        alphabet = signed_alphabet(graph)
        for length in range(5):
            for combo in itertools.product(alphabet, repeat=length):
                assert GroupElement(graph, combo).letters == two_pass_reduce(graph, combo)

    def test_canonical_form_orders_by_vertex_then_sign(self):
        g = C4()
        # a and b commute in the square, so both spellings share one class.
        assert str(el(g, "b a'")) == "a' b"
        assert str(el(g, "b' a")) == "a b'"

    def test_canonical_form_independent_of_representative(self):
        rng = random.Random(20240)
        g = L3()
        for _ in range(200):
            letters = random_word(rng, g, 5)
            e = GroupElement(g, letters)
            # shuffle by random commuting swaps, then re-reduce
            word = list(letters)
            for _ in range(10):
                i = rng.randrange(max(1, len(word) - 1)) if len(word) > 1 else 0
                if len(word) > 1:
                    a, b = word[i], word[i + 1]
                    if a[0] != b[0] and g.adjacent(a[0], b[0]):
                        word[i], word[i + 1] = b, a
            assert GroupElement(g, tuple(word)) == e


class TestGroupEqual:
    def test_defining_relation(self):
        g = C4()
        assert group_equal(Word.parse(g, "a b"), Word.parse(g, "b a"))

    def test_inverse_law_random(self):
        rng = random.Random(5150)
        g = C4()
        for _ in range(100):
            word = Word(g, random_word(rng, g, 6))
            assert group_equal(word * word.inverse(), Word(g, ()))

    def test_matches_rewriting_reachability_oracle(self):
        g = C4()
        alphabet = signed_alphabet(g)
        words = [
            combo
            for length in range(3)
            for combo in itertools.product(alphabet, repeat=length)
        ]
        for u in words:
            for v in words:
                assert group_equal(GroupElement(g, u), GroupElement(g, v)) == (
                    words_equivalent(g, u, v)
                )

    def test_matches_rewriting_oracle_sampled_longer(self):
        rng = random.Random(31337)
        g = L3()
        for _ in range(150):
            u = random_word(rng, g, 4)
            v = random_word(rng, g, 4)
            assert group_equal(GroupElement(g, u), GroupElement(g, v)) == (
                words_equivalent(g, u, v)
            )

    def test_projection_equality_fails_for_groups(self):
        # Over the graph with one isolated vertex x and one edge y-z, this
        # word is non-trivial although every projection onto one or two
        # generators freely reduces to the empty word.
        g = Graph(["x", "y", "z"], [("y", "z")])
        word = Word.parse(g, "x y x' z x y' x' z'")
        assert not group_reduce(word).is_identity
        for keep in (("x",), ("y",), ("z",)) + g.non_adjacent_pairs():
            sub = tuple(l for l in word.letters if l[0] in keep)
            assert free_reduce(sub) == ()


class TestGroupCommute:
    def test_matches_commutator_oracle_on_radius_two_balls(self):
        # Every ordered pair of the radius-2 ball, over every graph on at
        # most four vertices up to isomorphism.
        for g in all_graphs_up_to(4):
            elements = canonical_elements(g, "group", 2)
            for u, v in itertools.product(elements, repeat=2):
                assert group_commute(u, v) == commutator_trivial(u, v)


@pytest.mark.parametrize(
    "operation",
    [group_commute, group_equal, multiply_factorize, commutes_totally, centralizer_witness],
    ids=lambda operation: operation.__name__,
)
def test_different_graphs_rejected(operation):
    # Every two-element operation checks the pair's graphs the same way.
    with pytest.raises(ValueError, match="different ambient graphs"):
        operation(el(C4(), "a"), el(L3(), "w"))


@pytest.mark.parametrize(
    "operation",
    [group_commute, group_equal, multiply_factorize, commutes_totally, centralizer_witness],
    ids=lambda operation: operation.__name__,
)
def test_equal_graphs_built_apart_accepted(operation):
    # Two Graph objects built separately from the same vertices and edges are
    # one ambient graph: the pair check compares them by value, and the
    # answer is the one over a single object.
    one, other = C4(), C4()
    assert one is not other
    for u, v in [("a", "b"), ("a", "c"), ("a b", "a'"), ("a c a'", "a c"), ("a a b", "a")]:
        assert operation(el(one, u), el(other, v)) == operation(el(one, u), el(one, v))


def test_hash_reads_the_word_and_equality_the_graph_too():
    # Equal elements over equal but distinct graph objects hash equal.
    x, y = el(C4(), "a b c a'"), el(C4(), "a b c a'")
    assert x.graph is not y.graph
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    # The same letters over C4 and over the path a-b-c-d: one hash, two
    # elements.
    path = Graph("a b c d".split(), [("a", "b"), ("b", "c"), ("c", "d")])
    over_c4, over_path = el(C4(), "a c"), el(path, "a c")
    assert over_c4.letters == over_path.letters
    assert over_c4 != over_path
    assert len({over_c4, over_path}) == 2


class TestSupportAndTotalCommutation:
    def test_support_of_reduced_word(self):
        assert support(el(C4(), "a b a'")) == {"b"}

    def test_generators_on_edge(self):
        g = C4()
        assert commutes_totally(el(g, "a"), el(g, "b"))

    def test_non_adjacent_support_fails(self):
        g = C4()
        assert not commutes_totally(el(g, "a"), el(g, "a c"))

    def test_identity_commutes_totally_with_anything(self):
        g = C4()
        for text in ("", "a", "a c", "a b c d"):
            assert commutes_totally(el(g, text), el(g, ""))
            assert commutes_totally(el(g, ""), el(g, text))

    @pytest.mark.parametrize("name", ["C4", "path(4)", "E(2,2)"])
    def test_matches_pairwise_adjacency_on_radius_two_balls(self, name):
        g = standard_graph(name)
        elements = ball(g, 2)
        for u, v in itertools.product(elements, repeat=2):
            pairwise = all(g.adjacent(x, y) for x in u.support() for y in v.support())
            assert commutes_totally(u, v) == pairwise


class TestMultiplyFactorize:
    def test_already_reduced_product(self):
        g = C4()
        u, x, v = multiply_factorize(el(g, "a"), el(g, "b"))
        assert (str(u), x.is_identity, str(v)) == ("a", True, "b")

    def test_full_cancellation(self):
        g = C4()
        u, x, v = multiply_factorize(el(g, "a c"), el(g, "c' a'"))
        assert u.is_identity and v.is_identity
        assert group_equal(x, el(g, "a c"))

    def test_contract_on_random_pairs(self):
        rng = random.Random(86420)
        for graph in (C4(), L3()):
            for _ in range(500):
                u = GroupElement(graph, random_word(rng, graph, 5))
                v = GroupElement(graph, random_word(rng, graph, 5))
                up, x, vp = multiply_factorize(u, v)
                assert up * x == u
                assert x.inverse() * vp == v
                assert up.length + x.length == u.length
                assert x.length + vp.length == v.length
                product = up * vp
                assert product == u * v
                assert product.length == up.length + vp.length


class TestCyclicReduce:
    def test_strips_commuting_conjugator(self):
        g = C4()
        dec = cyclic_reduce(el(g, "a c a'"))
        assert (str(dec.p), str(dec.h)) == ("a", "c")

    def test_already_cyclically_reduced(self):
        g = C4()
        dec = cyclic_reduce(el(g, "a b"))
        assert dec.p.is_identity
        assert group_equal(dec.h, el(g, "a b"))

    def test_identity(self):
        dec = cyclic_reduce(el(C4(), ""))
        assert dec.p.is_identity and dec.h.is_identity

    def test_decomposition_contract_random(self):
        rng = random.Random(11211)
        for graph in (C4(), L3()):
            for _ in range(300):
                g_el = GroupElement(graph, random_word(rng, graph, 5))
                dec = cyclic_reduce(g_el)
                assert dec.element() == g_el
                assert 2 * dec.p.length + dec.h.length == g_el.length
                assert is_cyclically_reduced(dec.h)

    def test_h_shortest_in_conjugacy_class_small(self):
        # Oracle: BFS over conjugation by single generators.
        g = C4()
        alphabet = signed_alphabet(g)
        for length in range(4):
            for combo in itertools.product(alphabet, repeat=length):
                start = GroupElement(g, combo)
                dec = cyclic_reduce(start)
                best = start.length
                seen = {start}
                frontier = [start]
                while frontier:
                    cur = frontier.pop()
                    for t in alphabet:
                        conj = GroupElement(g, (t,) + cur.letters + ((t[0], -t[1]),))
                        if conj.length <= cur.length and conj not in seen:
                            seen.add(conj)
                            frontier.append(conj)
                            best = min(best, conj.length)
                assert dec.h.length == best

    @pytest.mark.parametrize(
        "graph, radius",
        [(C4(), 4), (L3(), 4), (standard_graph("cycle(5)"), 3), (standard_graph("E(2,2)"), 3)],
        ids=["C4", "L3", "cycle(5)", "E(2,2)"],
    )
    def test_matches_peel_oracle(self, graph, radius):
        for g_el in ball(graph, radius):
            p, h = peel_cyclic_reduce(graph, g_el.letters)
            dec = cyclic_reduce(g_el)
            assert GroupElement(graph, p) == dec.p
            assert GroupElement(graph, h) == dec.h
            assert is_cyclically_reduced(g_el) == (not p)

    def test_h_independent_of_representative(self):
        rng = random.Random(600)
        g = L3()
        for _ in range(100):
            letters = random_word(rng, g, 4)
            base = GroupElement(g, letters)
            padded = GroupElement(g, letters + (("w", 1), ("w", -1)))
            assert cyclic_reduce(base).h == cyclic_reduce(padded).h


class TestPureFactors:
    def test_two_singleton_blocks(self):
        g = C4()
        factorization = pure_factors(el(g, "a b"))
        rendered = [(str(root), exp) for root, exp in factorization.factors]
        assert rendered == [("a", 1), ("b", 1)]

    def test_free_group_square(self):
        free2 = Graph(["u", "v"])
        factorization = pure_factors(el(free2, "u v u v"))
        rendered = [(str(root), exp) for root, exp in factorization.factors]
        assert rendered == [("u v", 2)]

    def test_mixed_powers(self):
        g = C4()
        factorization = pure_factors(el(g, "a a b b b"))
        rendered = [(str(root), exp) for root, exp in factorization.factors]
        assert rendered == [("a", 2), ("b", 3)]

    def test_rejects_non_cyclically_reduced(self):
        g = C4()
        with pytest.raises(ValueError):
            pure_factors(el(g, "a c a'"))

    def test_reconstruction_and_block_invariants(self):
        rng = random.Random(424242)
        for graph in (C4(), L3()):
            for _ in range(200):
                h = cyclic_reduce(GroupElement(graph, random_word(rng, graph, 5))).h
                factorization = pure_factors(h)
                assert factorization.reconstruct(graph) == h
                supports = [root.support() for root, _ in factorization.factors]
                for s1, s2 in itertools.combinations(supports, 2):
                    assert not (s1 & s2)
                for root, exp in factorization.factors:
                    assert exp >= 1
                for (r1, e1), (r2, e2) in itertools.combinations(factorization.factors, 2):
                    assert group_commute(r1, r2)

    def test_roots_match_rewriting_oracle(self):
        for graph in (C4(), L3()):
            for h in ball(graph, 4):
                if h.is_identity or not is_cyclically_reduced(h):
                    continue
                for root, exp in pure_factors(h).factors:
                    piece = (root**exp).letters
                    oracle_root, oracle_exp = brute_force_primitive_root(graph, piece)
                    assert oracle_exp == exp
                    assert oracle_root in swap_cancel_closure(graph, root.letters)

    @pytest.mark.parametrize(
        "graph, radius",
        [(C4, 4), (L3, 4), (lambda: standard_graph("cycle(5)"), 3)],
        ids=["C4", "L3", "cycle(5)"],
    )
    def test_blocks_and_pieces_match_an_independent_oracle(self, graph, radius):
        # The factor supports are the co-components of supp h, and each
        # factor power spells h's letters on its block in h's order: those
        # letters are already in normal form, as the structure assumes.
        graph = graph()
        for h in ball(graph, radius):
            if peel_cyclic_reduce(graph, h.letters)[0]:
                continue
            factors = pure_factors(h).factors
            supports = {root.support() for root, _ in factors}
            assert supports == complement_components(graph, h.support())
            for root, exp in factors:
                block = root.support()
                assert (root**exp).letters == tuple(l for l in h.letters if l[0] in block)

    def brute_force_is_proper_power(self, element):
        # Independent oracle: scan every raw signed word of each dividing
        # length for an exact power.
        n = element.length
        alphabet = signed_alphabet(element.graph)
        for k in range(2, n + 1):
            if n % k:
                continue
            for combo in itertools.product(alphabet, repeat=n // k):
                candidate = GroupElement(element.graph, combo)
                if candidate**k == element:
                    return True
        return False

    def test_factors_are_primitive_by_independent_oracle(self):
        rng = random.Random(8888)
        for graph in (C4(), L3()):
            for _ in range(40):
                h = cyclic_reduce(GroupElement(graph, random_word(rng, graph, 4))).h
                for root, exp in pure_factors(h).factors:
                    if root.length <= 4:
                        assert not self.brute_force_is_proper_power(root)


class TestPureFactorsCache:
    """pure_factors reads the structure that centralizer_witness caches."""

    @staticmethod
    def rendered(factorization):
        return [(str(root), exp) for root, exp in factorization.factors]

    def test_cold_and_warm_calls_agree(self):
        for graph in (C4(), L3()):
            elements = [h for h in ball(graph, 3) if is_cyclically_reduced(h)]
            warm = []
            for h in elements:
                pure_factors(h)
                warm.append(pure_factors(h))
            cold = []
            for h in elements:
                _centralizer_structure.cache_clear()
                cold.append(pure_factors(h))
            assert warm == cold
            assert list(map(self.rendered, warm)) == list(map(self.rendered, cold))

    def test_an_equal_graph_built_apart_gets_the_same_factors(self):
        first, second = C4(), C4()
        for text in ("a b", "a a b b b", "a c a c", "a c b d a c b d"):
            _centralizer_structure.cache_clear()
            cold = pure_factors(el(second, text))
            _centralizer_structure.cache_clear()
            warm_over_first = pure_factors(el(first, text))
            cached = pure_factors(el(second, text))
            assert cached == cold == warm_over_first
            assert self.rendered(cached) == self.rendered(cold)
            assert cached.reconstruct(second) == el(second, text)

    def test_refusal_is_the_same_whether_or_not_cached(self):
        g = el(C4(), "a c a'")
        _centralizer_structure.cache_clear()
        with pytest.raises(ValueError) as cold:
            pure_factors(g)
        _centralizer_structure.cache_clear()
        assert centralizer_witness(g, g).found
        with pytest.raises(ValueError) as cached:
            pure_factors(g)
        assert str(cold.value) == str(cached.value)
        assert str(cached.value) == "pure factors require a cyclically reduced element"

    def test_a_cold_call_cancels_once(self):
        # The one cancellation of h h gives p, h and the cyclically reduced
        # check at once, for pure_factors and for the witness alike.
        for text in ("a b a b", "a c a c", "a c a'"):
            g = el(C4(), text)
            for call in (lambda: centralizer_witness(g, g), lambda: pure_factors(g)):
                _centralizer_structure.cache_clear()
                with mock.patch.object(raag, "_cancel", wraps=raag._cancel) as cancel:
                    with contextlib.suppress(ValueError):
                        call()
                assert cancel.call_count == 1


class TestCentralizerWitness:
    def test_non_adjacent_generators_proved_non_commuting(self):
        g = C4()
        out = centralizer_witness(el(g, "a"), el(g, "c"))
        assert out.status == "proved-non-commuting"

    def test_witness_for_power_times_commuting_part(self):
        g = C4()
        out = centralizer_witness(el(g, "a"), el(g, "a a b"))
        assert out.found
        assert out.reconstruct() == el(g, "a a b")
        assert commutes_totally(out.witness.k2, out.decomposition.h)

    def test_witness_in_free_group(self):
        free2 = Graph(["u", "v"])
        out = centralizer_witness(el(free2, "u v"), el(free2, "u v u v"))
        assert out.found
        assert out.reconstruct() == el(free2, "u v u v")

    def test_agrees_with_commutation_exhaustively_small(self):
        elements = ball(L3(), 2)
        for a in elements:
            for b in elements:
                out = centralizer_witness(a, b)
                assert out.found == commutator_trivial(a, b)
                assert out.status in ("witness", "proved-non-commuting")
                if out.found:
                    assert out.reconstruct() == b

    @pytest.mark.parametrize("graph, size", [(C4, 217), (L3, 277)], ids=["C4", "L3"])
    def test_matches_commutator_oracle_on_benchmark_balls(self, graph, size):
        # Every ordered pair of the radius-3 ball: the benchmark's op set.
        elements = ball(graph(), 3)
        assert len(elements) == size
        for a in elements:
            for b in elements:
                out = centralizer_witness(a, b)
                assert out.found == commutator_trivial(a, b)
                if out.found:
                    assert out.reconstruct() == b

    def test_same_letters_over_two_graphs_keep_their_own_structure(self):
        # C4 and the path a-b-c-d differ only in the edge {a, d}. Both words
        # are reduced and in normal form over both graphs, but over C4
        # a c a^-1 d has p = a and a d two pure factors; over the path,
        # a c a^-1 d is cyclically reduced and a d is one pure factor.
        path = Graph("a b c d".split(), [("a", "b"), ("b", "c"), ("c", "d")])
        for text in ("a c a' d", "a d"):
            assert el(C4(), text).letters == el(path, text).letters
            structures = []
            for graph in (C4(), path, C4(), path):
                g = el(graph, text)
                out = centralizer_witness(g, el(graph, "a"))
                decomposition = cyclic_reduce(g)
                assert out.decomposition == decomposition
                assert out.factorization == pure_factors(decomposition.h)
                structures.append((out.decomposition, out.factorization))
            assert structures[0] == structures[2] != structures[1] == structures[3]

    def test_cached_structure_matches_a_cold_start(self):
        for graph in (C4(), L3()):
            elements = ball(graph, 2)
            for a in elements:
                hot = [centralizer_witness(a, b) for b in elements]
                cold = []
                for b in elements:
                    _centralizer_structure.cache_clear()
                    cold.append(centralizer_witness(a, b))
                assert hot == cold

    def test_matches_bounded_search_reference(self):
        for graph in (C4(), L3()):
            elements = ball(graph, 2)
            for a in elements:
                for b in elements:
                    out = centralizer_witness(a, b)
                    if not group_commute(a, b):
                        assert out.witness is None
                        continue
                    witness = (out.witness.exponents, out.witness.k2)
                    assert witness == bounded_centralizer_reference(a, b)


class TestCentralizerStructureMemo:
    """The cached structure also holds g's refusal, p^-1 and each block's
    powers r**c, filled as they are first compared."""

    @staticmethod
    def rendered(out):
        w = out.witness
        return out.status, w and (str(w.p), w.exponents, str(w.k2))

    @pytest.mark.parametrize("graph", [C4, L3], ids=["C4", "L3"])
    def test_outcomes_do_not_depend_on_the_cache(self, graph):
        # Each g three ways over its whole ball: the ks in ball order and in
        # reversed order (so longer powers are memoized first) on a structure
        # warmed from cold, and every call from cold.
        elements = ball(graph(), 3)
        signs = set()
        for g in elements:
            forward, backward, blocks = [], [], []
            for order, outcomes in ((elements, forward), (elements[::-1], backward)):
                _centralizer_structure.cache_clear()
                outcomes.extend(centralizer_witness(g, k) for k in order)
                blocks.extend(_centralizer_structure(g)[3])
            backward.reverse()
            cold = []
            for k in elements:
                _centralizer_structure.cache_clear()
                cold.append(centralizer_witness(g, k))
            decomposition = cyclic_reduce(g)
            assert {(out.decomposition, out.factorization) for out in forward + backward} == {
                (decomposition, pure_factors(decomposition.h))
            }
            assert (
                list(map(self.rendered, forward))
                == list(map(self.rendered, backward))
                == list(map(self.rendered, cold))
            )
            for _, root, powers in blocks:
                for c, letters in (powers or {}).items():
                    assert letters == (root**c).letters
                    signs.add(c > 0)
        assert signs == {True, False}

    def test_refusals_at_the_star_and_at_a_known_power_run_no_insertion(self):
        # Over the path w-x-y-z, g = w y has p empty, star {w, x, y} and one
        # block {w, y} with root w y: z is refused at the star, and w y y w
        # at the block once (w y)**2 has been compared.
        graph = L3()
        g, off_star, wrong_power = el(graph, "w y"), el(graph, "z"), el(graph, "w y y w")
        _centralizer_structure.cache_clear()
        assert centralizer_witness(g, el(graph, "w y w y")).witness.exponents == (2,)
        refused = _centralizer_structure(g)[5]
        assert refused.decomposition == cyclic_reduce(g)
        for k in (off_star, wrong_power):
            with mock.patch.object(raag, "_insert", wraps=raag._insert) as insert:
                out = centralizer_witness(g, k)
            assert insert.call_count == 0
            assert out is refused
