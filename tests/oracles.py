"""Independent oracles used by the tests.

Everything here deliberately avoids the library's production code paths:
graph enumeration by edge-mask orbits, embedding by scanning all injections
(and the first embedding by plain backtracking in ``find_embedding``'s
order, checking adjacency by name), positive words by plain products,
clique number by scanning all subsets, co-components by merging the classes
of non-adjacent pairs, geodesic length, word equivalence
and primitive roots by breadth-first closure over the elementary rewriting
moves (swap adjacent commuting letters, cancel an adjacent inverse pair),
cyclic reduction by peeling one conjugating letter pair at a time, the
lexicographic normal form by the greedy extraction of the least movable letter
(alone, or after an append-only reduction), balls by reducing every raw word
of bounded length, group commutation by append-reducing the commutator, and
commutation masks by testing every pair (no projection keys): group pairs by
their commutator, monoid pairs by ``trace_commute``, and the forward-checking
search by the kernel as it was before it remembered failed states, and
the letter check by one pass per letter, as it was before the bulk test.
"""

import itertools

from graphgroups import Graph, Word, trace_commute


def all_graphs_up_to_iso(n):
    """All graphs on vertices v1..vn, one per isomorphism class."""
    verts = [f"v{k}" for k in range(1, n + 1)]
    pairs = list(itertools.combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        orbit = set()
        for perm in perms:
            m2 = 0
            for i, (a, b) in enumerate(pairs):
                if mask >> i & 1:
                    x, y = perm[a], perm[b]
                    if x > y:
                        x, y = y, x
                    m2 |= 1 << pair_index[(x, y)]
            orbit.add(m2)
        seen |= orbit
        edges = [(verts[a], verts[b]) for i, (a, b) in enumerate(pairs) if mask >> i & 1]
        out.append(Graph(verts, edges))
    return out


def all_graphs_up_to(n):
    return [g for k in range(n + 1) for g in all_graphs_up_to_iso(k)]


def is_isomorphic(g, h):
    """Brute-force graph isomorphism over all vertex bijections."""
    if len(g) != len(h) or g.edge_count != h.edge_count:
        return False
    for perm in itertools.permutations(h.vertices):
        mapping = dict(zip(g.vertices, perm))
        if all(
            h.adjacent(mapping[u], mapping[v]) == g.adjacent(u, v)
            for u, v in itertools.combinations(g.vertices, 2)
        ):
            return True
    return False


def letters_checked_one_by_one(graph, letters):
    """Letters from outside checked one at a time, reading only
    ``graph.vertices``: each letter must be a pair (a string is none), and is
    made a tuple with a string base; then, in order, each base must be a
    vertex and each sign +1 or -1. The first failure raises ``ValueError``."""
    coerced = []
    for letter in letters:
        try:
            if isinstance(letter, str):
                raise ValueError
            base, sign = letter
        except (TypeError, ValueError):
            raise ValueError(f"letter must be a (vertex, sign) pair, got {letter!r}") from None
        coerced.append((str(base), sign))
    for base, sign in coerced:
        if base not in graph.vertices:
            raise ValueError(f"unknown vertex {base!r}")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
    return tuple(coerced)


def brute_force_embedding_exists(pattern, host):
    """Scan every injection of pattern vertices into host vertices."""
    pv = pattern.vertices
    for image in itertools.permutations(host.vertices, len(pv)):
        mapping = dict(zip(pv, image))
        if all(
            pattern.adjacent(u, v) == host.adjacent(mapping[u], mapping[v])
            for u, v in itertools.combinations(pv, 2)
        ):
            return True
    return False


def ordered_backtracking_embedding(pattern, host):
    """The first induced embedding in the order of ``find_embedding``, or
    None: pattern vertices by decreasing degree then name, each tried on
    the host vertices in order, skipping used ones and those of smaller
    degree, and checked by name against every earlier assignment."""
    pverts = sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), v))
    if len(pverts) > len(host.vertices):
        return None
    mapping = {}

    def extend(i):
        if i == len(pverts):
            return True
        p = pverts[i]
        for h in host.vertices:
            if h in mapping.values() or host.degree(h) < pattern.degree(p):
                continue
            if all(
                pattern.adjacent(p, q) == host.adjacent(h, mapping[q]) for q in pverts[:i]
            ):
                mapping[p] = h
                if extend(i + 1):
                    return True
                del mapping[p]
        return False

    return dict(mapping) if extend(0) else None


def brute_force_clique_number(g):
    """Largest complete subset, by scanning all vertex subsets."""
    best = 0
    for size in range(len(g), 0, -1):
        for subset in itertools.combinations(g.vertices, size):
            if all(g.adjacent(u, v) for u, v in itertools.combinations(subset, 2)):
                return size
    return best


def follow_table_by_pairs(graph):
    """``trace._follow_table`` by its definition, one ``adjacent`` query per
    (letter, vertex) pair: the letters by base, positive first; keep[l] holds
    l and both letters of every base not adjacent to l's, and up[l] both
    letters of every base adjacent to l's and greater than it."""
    letters = [(v, s) for v in graph.vertices for s in (1, -1)]
    index = {letter: i for i, letter in enumerate(letters)}

    def both_signs(bases):
        return sum(1 << index[(v, s)] for v in bases for s in (1, -1))

    keep = [
        1 << index[l] | both_signs(v for v in graph.vertices if not graph.adjacent(l[0], v))
        for l in letters
    ]
    up = [
        both_signs(v for v in graph.vertices if v > b and graph.adjacent(b, v))
        for b, _ in letters
    ]
    return letters, index, keep, up


def all_words(graph, max_len):
    """Every positive word of length <= max_len, in product order."""
    for length in range(max_len + 1):
        for combo in itertools.product(graph.vertices, repeat=length):
            yield Word(graph, tuple((b, 1) for b in combo))


def signed_alphabet(graph):
    return [s for v in graph.vertices for s in ((v, 1), (v, -1))]


def swap_cancel_closure(graph, letters):
    """All words reachable by swapping adjacent commuting letters and
    cancelling adjacent inverse pairs (lengths never grow)."""
    seen = {tuple(letters)}
    stack = [tuple(letters)]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a[0] == b[0] and a[1] == -b[1]:
                nw = w[:i] + w[i + 2 :]
            elif a[0] != b[0] and graph.adjacent(a[0], b[0]):
                nw = w[:i] + (b, a) + w[i + 2 :]
            else:
                continue
            if nw not in seen:
                seen.add(nw)
                stack.append(nw)
    return seen


def brute_force_primitive_root(graph, letters):
    """Largest k, with a word r, such that r**k is reachable from a geodesic
    word by the rewriting moves: every word of length len/k over the input's
    letters is tried, largest k first. Returns (r, k); (letters, 1) when no
    proper power matches.

    For a positive word the moves are the commuting swaps of the monoid. For
    a reduced signed word, a word of the same length spells the same element
    exactly when swaps alone reach it, so this also finds group roots.
    """
    letters = tuple(letters)
    n = len(letters)
    closure = swap_cancel_closure(graph, letters)
    alphabet = sorted(set(letters))
    for k in range(n, 1, -1):
        if n % k:
            continue
        for root in itertools.product(alphabet, repeat=n // k):
            if root * k in closure:
                return root, k
    return letters, 1


def complement_components(graph, vertices):
    """The connected components of the complement of the subgraph that
    vertices induce, as a set of frozensets: each non-adjacent pair
    (``graph.adjacent``) merges the classes of its two vertices."""
    classes = {v: frozenset([v]) for v in vertices}
    for u, v in itertools.combinations(sorted(vertices), 2):
        if not graph.adjacent(u, v) and classes[u] is not classes[v]:
            merged = classes[u] | classes[v]
            for w in merged:
                classes[w] = merged
    return set(classes.values())


def commute(graph, a, b):
    """Signed letters commute iff their bases are distinct and adjacent."""
    return a[0] != b[0] and graph.adjacent(a[0], b[0])


def greedy_lex_normal_letters(graph, letters):
    """Lexicographic normal form of a positive word or a reduced signed word
    by the greedy: repeatedly extract the least letter (base order, positive
    first) that commutes with every letter before it. Cubic."""
    rem = list(letters)
    out = []
    while rem:
        movable = [
            i for i, l in enumerate(rem) if all(commute(graph, rem[j], l) for j in range(i))
        ]
        out.append(rem.pop(min(movable, key=lambda i: (rem[i][0], rem[i][1] < 0))))
    return tuple(out)


def append_reduce(graph, letters):
    """A reduced word for the element the letters spell, by append-only
    stack insertion: each letter scans backward past letters it commutes
    with, and cancels on meeting its inverse, otherwise it is appended."""
    stack = []
    for letter in letters:
        j = len(stack) - 1
        while j >= 0 and commute(graph, stack[j], letter):
            j -= 1
        if j >= 0 and stack[j] == (letter[0], -letter[1]):
            del stack[j]
        else:
            stack.append(letter)
    return stack


def two_pass_reduce(graph, letters):
    """Canonical reduced word in two passes: ``append_reduce``, then the
    greedy normal form."""
    return greedy_lex_normal_letters(graph, append_reduce(graph, letters))


def commutator_trivial(u, v):
    """Whether group elements u and v commute: the commutator u v u^-1 v^-1
    of their letters append-reduces to the empty word."""
    inverse = lambda w: [(b, -s) for b, s in reversed(w)]
    letters = [*u.letters, *v.letters, *inverse(u.letters), *inverse(v.letters)]
    return not append_reduce(u.graph, letters)


def peel_cyclic_reduce(graph, letters):
    """Cyclic reduction of a reduced word by peeling: repeatedly strip the
    least letter (base order, positive first) that moves to the front whose
    inverse moves to the back from another position, collecting the former
    into p. Returns the letters (p, h) with g = p h p^-1."""
    word = list(letters)
    p = []
    while True:
        front, back = set(), set()
        for i, l in enumerate(word):
            if all(commute(graph, word[j], l) for j in range(i)):
                front.add(l)
            if all(commute(graph, word[j], l) for j in range(i + 1, len(word))):
                back.add(l)
        candidates = [l for l in front if (l[0], -l[1]) in back]
        if not candidates:
            return tuple(p), tuple(word)
        letter = min(candidates, key=lambda l: (l[0], l[1] < 0))
        i = word.index(letter)
        j = len(word) - 1 - word[::-1].index((letter[0], -letter[1]))
        del word[j]
        del word[i]
        p.append(letter)


def bfs_geodesic_length(graph, letters):
    return min(len(w) for w in swap_cancel_closure(graph, letters))


def words_equivalent(graph, u_letters, v_letters):
    """Two words spell the same group element iff their swap/cancel closures
    meet (both closures contain the whole geodesic class)."""
    cu = swap_cancel_closure(graph, u_letters)
    if tuple(v_letters) in cu:
        return True
    cv = swap_cancel_closure(graph, v_letters)
    return not cu.isdisjoint(cv)


def free_reduce(letters):
    """Free-group reduction: cancel adjacent inverse pairs only."""
    out = []
    for l in letters:
        if out and out[-1][0] == l[0] and out[-1][1] == -l[1]:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def cayley_ball_by_rewriting(graph, max_len):
    """Number of group elements of geodesic length <= max_len, counted by
    partitioning all raw words into rewriting-equivalence classes.

    The class key of a word is the set of minimum-length words in its
    swap/cancel closure: the closure of any word contains the full geodesic
    class of its element, so equal keys mean equal elements.
    """
    keys = set()
    alphabet = signed_alphabet(graph)
    for length in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=length):
            closure = swap_cancel_closure(graph, w)
            shortest = min(len(x) for x in closure)
            keys.add(frozenset(x for x in closure if len(x) == shortest))
    return len(keys)


def raw_word_ball(graph, mode, max_len):
    """Letters of the distinct canonical elements of length <= max_len, by
    reducing every raw word of bounded length (signed words in the group,
    positive ones in the monoid), deduplicating, and sorting by length then
    base order, positive before negative."""
    alphabet = signed_alphabet(graph) if mode == "group" else [(v, 1) for v in graph.vertices]
    seen = set()
    for length in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=length):
            seen.add(two_pass_reduce(graph, w))
    return sorted(seen, key=lambda ls: (len(ls), [(b, s < 0) for b, s in ls]))


def pairwise_commute_masks(mode, pool):
    """Per-element bitmask of the pool members it commutes with, by the
    exact commutation test on every pair: ``trace_commute`` in the monoid,
    the commutator in the group."""
    commute = trace_commute if mode == "monoid" else commutator_trivial
    masks = [1 << i for i in range(len(pool))]
    for i, j in itertools.combinations(range(len(pool)), 2):
        if commute(pool[i], pool[j]):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def _iter_bits(mask):
    """Indices of the set bits of a non-negative integer, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def plain_forward_check(want_edge, masks, domains, strict):
    """Depth-first search for candidates c_k in the bitmasks domains[k],
    such that for i < j, c_j is in masks[c_i] (which holds c_i) exactly when
    want_edge[i][j - i - 1]. Forward checking (Haralick and Elliott):
    assigning c ANDs every later domain with masks[c], or its complement
    where no edge is wanted, and backtracks as soon as one is empty;
    ``strict`` also clears c, so the assignment is injective. The least
    assignment, lowest candidates first, comes back as a list, or None,
    with the number of candidates tried. ``domains`` may be a suffix of the
    variables: want_edge rows are read from the end.
    """
    if not domains:
        return [], 0
    edges, rest = want_edge[-len(domains)], domains[1:]
    examined = 0
    for c in _iter_bits(domains[0]):
        examined += 1
        if not rest:
            return [c], examined
        near, far = masks[c], ~masks[c]
        if strict:
            near ^= 1 << c
        later = [d & (near if e else far) for d, e in zip(rest, edges)]
        if all(later):
            found, tried = plain_forward_check(want_edge, masks, later, strict)
            examined += tried
            if found is not None:
                return [c] + found, examined
    return None, examined
