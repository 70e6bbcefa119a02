"""Property tests over random graphs, checked against the definitions and
against the oracles."""

import collections
import itertools
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from graphgroups import (  # noqa: E402
    Graph,
    GroupElement,
    Word,
    centralizer_witness,
    cyclic_reduce,
    is_cyclically_reduced,
    multiply_factorize,
    primitive_root,
    pure_factors,
    trace_equal,
    trace_normal_form,
)
from graphgroups import commgraph  # noqa: E402
from graphgroups.graphs import _closed_masks, _forward_check  # noqa: E402
from graphgroups.trace import _follow_table, check_letters  # noqa: E402
from oracles import (  # noqa: E402
    commutator_trivial,
    commute,
    greedy_lex_normal_letters,
    letters_checked_one_by_one,
    pairwise_commute_masks,
    plain_forward_check,
    raw_word_ball,
    two_pass_reduce,
)

SETTINGS = settings(max_examples=200, deadline=None, database=None)


def graphs(draw, max_vertices):
    vertices = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    edges = [p for p in itertools.combinations(vertices, 2) if draw(st.booleans())]
    return Graph(vertices, edges)


def letters(graph):
    return st.tuples(st.sampled_from(graph.vertices), st.sampled_from((1, -1)))


@st.composite
def powers(draw):
    """A graph on at most five vertices, a positive root of at most three
    letters and a power k <= 4."""
    graph = graphs(draw, 5)
    root = draw(st.lists(st.sampled_from(graph.vertices), min_size=1, max_size=3))
    return graph, root, draw(st.integers(1, 4))


@st.composite
def signed_words(draw, count, max_size=10):
    """A graph on at most seven vertices and ``count`` signed words of at
    most ``max_size`` letters over it."""
    graph = graphs(draw, 7)
    return graph, [draw(st.lists(letters(graph), max_size=max_size)) for _ in range(count)]


@st.composite
def conjugates(draw):
    """A graph on at most seven vertices and a signed word p h p^-1 of at
    most ten letters over it (p may be empty)."""
    graph = graphs(draw, 7)
    p = draw(st.lists(letters(graph), max_size=3))
    h = draw(st.lists(letters(graph), max_size=10 - 2 * len(p)))
    return graph, p + h + [(b, -s) for b, s in reversed(p)]


@st.composite
def centralizer_pairs(draw):
    """A graph on two to six vertices, g = p h p^-1 with p nontrivial and a
    pure factor of h on more than one vertex, and k: half the time a random
    word of at most eight letters, otherwise p * prod r_i**c_i * w * p^-1
    with |c_i| <= 3, nonzero on multi-vertex blocks, and w a word over the
    link of supp h (vertices off supp h adjacent to all of it). Returns the
    graph, g, k and the c_i of the built k (None for a random k)."""
    graph = graphs(draw, 6)
    pairs = graph.non_adjacent_pairs()
    assume(pairs)
    x, y = draw(st.sampled_from(pairs))
    sign = st.sampled_from((1, -1))
    h = [(x, draw(sign)), (y, draw(sign))] + draw(st.lists(letters(graph), max_size=4))
    p = draw(st.lists(letters(graph), min_size=1, max_size=3))
    g = GroupElement(graph, p + h + [(b, -s) for b, s in reversed(p)])
    decomposition = cyclic_reduce(g)
    roots = [root for root, _ in pure_factors(decomposition.h).factors]
    assume(decomposition.p.letters and any(root.length > 1 for root in roots))
    if draw(st.booleans()):
        return graph, g, GroupElement(graph, draw(st.lists(letters(graph), max_size=8))), None
    exponents = [
        draw(st.sampled_from((-3, -2, -1, 1, 2, 3)) if root.length > 1 else st.integers(-3, 3))
        for root in roots
    ]
    supp = decomposition.h.support()
    link = [v for v in graph.vertices if v not in supp and all(graph.adjacent(v, u) for u in supp)]
    w = draw(st.lists(st.tuples(st.sampled_from(link), sign), max_size=4)) if link else []
    k = decomposition.p
    for root, c in zip(roots, exponents):
        k = k * root**c
    k = k * GroupElement(graph, w) * decomposition.p.inverse()
    return graph, g, k, exponents


@st.composite
def long_words(draw, signed):
    """A graph on at most seven vertices and a word of at most forty
    letters over it, signed or positive."""
    graph = graphs(draw, 7)
    letter = letters(graph) if signed else st.tuples(st.sampled_from(graph.vertices), st.just(1))
    return graph, tuple(draw(st.lists(letter, max_size=40)))


@st.composite
def commuting_pairs(draw):
    """A graph on at most five vertices and two elements c z^a c^-1 and
    c z^b c^-1 (|a|, |b| <= 2) of at most twelve letters."""
    graph = graphs(draw, 5)
    c = GroupElement(graph, draw(st.lists(letters(graph), max_size=2)))
    z = GroupElement(graph, draw(st.lists(letters(graph), min_size=1, max_size=4)))
    a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return c * z**a * c.inverse(), c * z**b * c.inverse()


@st.composite
def conjugated_letters(draw):
    """A graph on at most six vertices with a non-adjacent pair {x, y}, and
    the elements x y x^-1 and y."""
    graph = graphs(draw, 6)
    pairs = graph.non_adjacent_pairs()
    assume(pairs)
    x, y = draw(st.sampled_from(pairs))
    return GroupElement(graph, [(x, 1), (y, 1), (x, -1)]), GroupElement(graph, [(y, 1)])


def forbidden_factors(graph, word):
    """Factors b u a of the word with a < b (base order, positive first)
    and a commuting with b and with every letter of u, as index pairs: the
    lexicographic normal form has none."""
    key = [(b, s < 0) for b, s in word]
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(word)), 2)
        if key[j] < key[i] and all(commute(graph, l, word[j]) for l in word[i:j])
    ]


def cancellable_pairs(graph, word):
    """Factors l u l^-1 of the word with l commuting with every letter of u,
    as index pairs: a reduced word has none."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(word)), 2)
        if word[j] == (word[i][0], -word[i][1])
        and all(commute(graph, l, word[j]) for l in word[i + 1 : j])
    ]


@st.composite
def positive_pairs(draw):
    """A graph on at most seven vertices and two positive words of at most
    ten letters: half the time the second is the first after random swaps of
    adjacent commuting letters, otherwise it is drawn on its own."""
    graph = graphs(draw, 7)
    word = st.lists(st.sampled_from(graph.vertices), max_size=10)
    u = draw(word)
    if draw(st.booleans()):
        v = list(u)
        for i in draw(st.lists(st.integers(0, max(0, len(v) - 2)), max_size=20)):
            if i + 1 < len(v) and v[i] != v[i + 1] and graph.adjacent(v[i], v[i + 1]):
                v[i], v[i + 1] = v[i + 1], v[i]
    else:
        v = draw(word)
    return graph, Word(graph, [(b, 1) for b in u]), Word(graph, [(b, 1) for b in v])


@st.composite
def balls(draw):
    """A graph on at most five vertices, a mode and a radius of at most four
    in the monoid and three in the group."""
    graph = graphs(draw, 5)
    mode = draw(st.sampled_from(("monoid", "group")))
    return graph, mode, draw(st.integers(0, 4 if mode == "monoid" else 3))


@st.composite
def normal_forms(draw):
    """A graph on at most five vertices and the normal form of a word of at
    most twelve letters over it, positive or signed."""
    graph = graphs(draw, 5)
    alphabet = letters(graph) if draw(st.booleans()) else st.tuples(
        st.sampled_from(graph.vertices), st.just(1)
    )
    return graph, GroupElement(graph, draw(st.lists(alphabet, max_size=12))).letters


@SETTINGS
@given(powers())
def test_primitive_root_of_a_power(case):
    graph, root, k = case
    word = Word(graph, [(v, 1) for v in root]) ** k
    found, exp = primitive_root(word)
    assert trace_equal(found**exp, word)
    assert exp % k == 0


@SETTINGS
@given(signed_words(1))
def test_element_times_inverse_is_identity(case):
    graph, (letters,) = case
    u = GroupElement(graph, letters)
    assert (u * u.inverse()).is_identity


@SETTINGS
@given(signed_words(2, max_size=20), st.integers(0, 3))
def test_products_powers_and_inverses_match_construction(case, n):
    # Products, powers and inverses insert into a stack primed with
    # canonical letters; the constructor reduces the whole word from scratch.
    graph, (u_letters, v_letters) = case
    u, v = GroupElement(graph, u_letters), GroupElement(graph, v_letters)
    assert (u * v).letters == GroupElement(graph, u_letters + v_letters).letters
    assert (u**n).letters == GroupElement(graph, u_letters * n).letters
    inverse = [(b, -s) for b, s in reversed(u_letters)]
    assert u.inverse().letters == GroupElement(graph, inverse).letters


@SETTINGS
@given(signed_words(2))
def test_multiply_factorize_rebuilds_both_factors(case):
    graph, (u_letters, v_letters) = case
    u, v = GroupElement(graph, u_letters), GroupElement(graph, v_letters)
    up, x, vp = multiply_factorize(u, v)
    assert up * x == u
    assert x.inverse() * vp == v
    assert (up * vp).length == up.length + vp.length


@SETTINGS
@given(conjugates())
def test_cyclic_reduce_rebuilds_the_element(case):
    graph, word = case
    g = GroupElement(graph, word)
    dec = cyclic_reduce(g)
    assert dec.element() == g
    assert 2 * dec.p.length + dec.h.length == g.length
    assert is_cyclically_reduced(g) == ((g * g).length == 2 * g.length)
    assert is_cyclically_reduced(dec.h)


@SETTINGS
@given(centralizer_pairs())
def test_centralizer_witness_matches_commutator_oracle(case):
    # Beyond the radius-3 balls: conjugated g, and powers r_i**c_i with
    # |c_i| up to 3 of either sign.
    graph, g, k, exponents = case
    out = centralizer_witness(g, k)
    assert out.found == commutator_trivial(g, k)
    if exponents is not None:
        # One-vertex blocks report 0 and leave their powers in k2.
        roots = [root for root, _ in out.factorization.factors]
        expected = [c if root.length > 1 else 0 for root, c in zip(roots, exponents)]
        assert out.found and list(out.witness.exponents) == expected
    if out.found:
        assert out.reconstruct() == k


@SETTINGS
@given(positive_pairs())
def test_trace_normal_form_decides_equality(case):
    graph, u, v = case
    nf = trace_normal_form(u)
    assert trace_normal_form(nf) == nf
    assert trace_equal(u, v) == (nf == trace_normal_form(v))


@SETTINGS
@given(long_words(signed=False))
def test_trace_normal_form_matches_greedy(case):
    graph, word = case
    assert trace_normal_form(Word(graph, word)).letters == greedy_lex_normal_letters(graph, word)


@SETTINGS
@given(long_words(signed=True))
def test_group_element_matches_two_pass_reduction(case):
    graph, word = case
    assert GroupElement(graph, word).letters == two_pass_reduce(graph, word)


@SETTINGS
@given(long_words(signed=False))
def test_trace_normal_form_has_no_forbidden_factor(case):
    graph, word = case
    nf = trace_normal_form(Word(graph, word)).letters
    assert collections.Counter(nf) == collections.Counter(word)
    assert forbidden_factors(graph, nf) == []


@SETTINGS
@given(long_words(signed=True))
def test_group_element_is_reduced_with_no_forbidden_factor(case):
    graph, word = case
    reduced = GroupElement(graph, word).letters
    assert cancellable_pairs(graph, reduced) == []
    assert forbidden_factors(graph, reduced) == []


@SETTINGS
@given(commuting_pairs())
def test_commuting_conjugates_share_mask_bits(pair):
    masks = commgraph._commute_masks("group", list(pair))
    assert masks == [0b11, 0b11]


@SETTINGS
@given(conjugated_letters())
def test_projection_key_separates_conjugates(pair):
    # x y x^-1 and y differ only in the conjugator of their {x, y}
    # projections, so the key alone must tell them apart: the exact test
    # (one group_commute call per pair no key separates) never runs.
    with mock.patch.object(commgraph, "group_commute", wraps=commgraph.group_commute) as exact:
        masks = commgraph._commute_masks("group", list(pair))
    assert masks == [0b01, 0b10]
    assert exact.call_count == 0


@st.composite
def small_graphs(draw):
    """A graph on at most five vertices."""
    return graphs(draw, 5)


@settings(SETTINGS, max_examples=50)
@given(small_graphs())
def test_group_masks_match_pairwise_exact_tests(graph):
    # Keys, then the exact test on the pairs left, against the commutator
    # of every pair of the radius-2 ball.
    pool = commgraph.canonical_elements(graph, "group", 2)
    assert commgraph._commute_masks("group", pool) == pairwise_commute_masks("group", pool)


@SETTINGS
@given(balls())
def test_canonical_elements_match_raw_word_oracle(case):
    # The ball grows from parents; the oracle reduces every raw word.
    graph, mode, max_len = case
    pool = commgraph.canonical_elements(graph, mode, max_len)
    assert [e.letters for e in pool] == raw_word_ball(graph, mode, max_len)


@SETTINGS
@given(normal_forms())
def test_follow_mask_matches_insertion(case):
    # The automaton's mask after w holds exactly the letters that inserting
    # into w's stack appends.
    graph, w = case
    alphabet, index, keep, up = _follow_table(graph)
    follow = -1
    for i in map(index.get, w):
        follow = keep[i] | follow & up[i]
    for i, l in enumerate(alphabet):
        assert bool(follow >> i & 1) == (GroupElement._inserted(graph, w, (l,)).letters == w + (l,))


@st.composite
def kernel_inputs(draw):
    """Wanted edges among at most six variables, the closed-neighbourhood
    masks of a graph on at most eight vertices, and domains for a suffix of
    the variables: all of them, or all but the first one or two. Each domain
    is the whole pool or any subset of it."""
    n, masks = draw(st.integers(0, 6)), _closed_masks(graphs(draw, 8))
    full = (1 << len(masks)) - 1
    domain = st.one_of(st.just(full), st.integers(0, full))
    want_edge = [draw(st.lists(st.booleans(), min_size=k, max_size=k)) for k in range(n - 1, -1, -1)]
    return want_edge, masks, [draw(domain) for _ in range(max(n - draw(st.integers(0, 2)), 0))]


@SETTINGS
@given(kernel_inputs(), st.booleans())
def test_forward_check_matches_the_plain_kernel(case, strict):
    # The stack's frames, the chosen candidates and the replayed counts of
    # failed states against the recursive, memo-free search. A few examples
    # in a hundred meet a failed state again.
    want_edge, masks, domains = case
    expected = plain_forward_check(want_edge, masks, domains, strict)
    assert _forward_check(want_edge, masks, domains, strict) == expected


DIGIT_GRAPH = Graph(["1", "2", "a", "b"], [("1", "a")])
VALID_LETTER = st.tuples(st.sampled_from(DIGIT_GRAPH.vertices), st.sampled_from((1, -1)))
OTHER_LETTER = st.one_of(
    st.tuples(st.sampled_from(("q", "c", 1, 2, 3)), st.sampled_from((1, -1))),  # unknown, int
    VALID_LETTER.map(list),
    st.tuples(st.sampled_from(DIGIT_GRAPH.vertices), st.sampled_from((0, 2, 1.5, -1.9, True))),
    st.sampled_from((5, ("a",), ("a", 1, 2), "ab", "a")),  # not pairs
)


@st.composite
def outside_letters(draw):
    """Valid letters with up to two letters of the other kinds (bad, or
    coercible to valid) inserted, and sometimes one unhashable letter."""
    letters = draw(st.lists(VALID_LETTER, max_size=12))
    others = draw(st.lists(OTHER_LETTER, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        others.append(draw(st.sampled_from((("a", [1]), (["a"], 1), ("b", {})))))
    for letter in others:
        letters.insert(draw(st.integers(0, len(letters))), letter)
    return letters


def _outcome(check, letters):
    try:
        return "ok", check(DIGIT_GRAPH, letters)
    except Exception as exc:  # the type and message are what must agree
        return "error", type(exc), str(exc)


@SETTINGS
@given(outside_letters())
def test_bulk_letter_check_matches_the_one_by_one_check(letters):
    expected = _outcome(letters_checked_one_by_one, letters)
    for given_as in (list, tuple):
        found = _outcome(check_letters, given_as(letters))
        assert found == expected
        if found[0] == "ok":
            assert all(type(letter) is tuple and type(letter[0]) is str for letter in found[1])
