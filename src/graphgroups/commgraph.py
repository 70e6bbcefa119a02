"""Commutation graphs of element families and bounded realizability search.

A family of monoid or group elements over an ambient graph has a commutation
graph: vertices are the member indices, edges join commuting members. The
realizability search asks the converse question for a target graph: does some
assignment of elements (of bounded canonical length) to target vertices
commute exactly along the target's edges? An exhausted answer is a
certificate only relative to the stated length bound, which every report
carries. Candidates come from ``_ball``: one automaton step per element.
"""

from __future__ import annotations

import collections
import itertools

from .graphs import Graph, _closed_masks, _forward_check, _iter_bits
from .raag import GroupElement, group_commute, group_reduce
from .trace import (
    Word,
    _follow_table,
    _inverse,
    _root,
    lex_normal_letters,
    trace_commute,
    trace_normal_form,
)

MODES = ("monoid", "group")
_FREE_PAIR = Graph(("a", "b"))  # every non-adjacent pair x, y, relabelled: x as a, y as b


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


class ElementFamily(collections.namedtuple("ElementFamily", "ambient mode members")):
    """An ordered family of canonical elements (duplicates permitted)."""

    __slots__ = ()

    def __new__(cls, ambient, mode, members):
        _check_mode(mode)
        canonical = []
        for m in members:
            if mode == "monoid":
                if isinstance(m, GroupElement):
                    m = m.word()
                if not m.is_positive:
                    raise ValueError("monoid family member with inverse letters")
            if m.graph is not ambient and m.graph != ambient:
                raise ValueError("family member over a different graph")
            canonical.append(
                trace_normal_form(m) if mode == "monoid" else group_reduce(m)
            )
        return super().__new__(cls, ambient, mode, tuple(canonical))


def _commute(mode, a, b):
    return trace_commute(a, b) if mode == "monoid" else group_commute(a, b)


def commutation_graph(family):
    """Graph on member indices "1".."n"; i ~ j exactly if members commute."""
    n = len(family.members)
    names = [str(i) for i in range(1, n + 1)]
    edges = [
        (names[i], names[j])
        for i, j in itertools.combinations(range(n), 2)
        if _commute(family.mode, family.members[i], family.members[j])
    ]
    return Graph(names, edges)


def _ball(ambient, mode, max_len):
    """The ball of radius max_len as (letters, parent index, last letter),
    by length then lexicographically, the identity first with parent None.
    w l is a normal form exactly when w is one and l is in follow(w)
    (``trace._follow_table``), so a parent's mask lists its children in
    order. Only the elements shorter than max_len are kept, with their masks;
    they come first, so their indices are their places in the ball."""
    letters, _, keep, up = _follow_table(ambient)
    alphabet = sum(1 << i for i, (_, s) in enumerate(letters) if mode == "group" or s > 0)
    yield (), None, None
    kept = [((), alphabet)] if max_len else []
    for parent, (w, follow) in enumerate(kept):  # read while it grows: a queue
        for i in _iter_bits(follow & alphabet):
            child = w + (letters[i],)
            yield child, parent, letters[i]
            if len(child) < max_len:
                kept.append((child, keep[i] | follow & up[i]))


def canonical_elements(ambient, mode, max_len):
    """All distinct canonical elements of length <= max_len (the group pool
    is the ball of that radius), in ``_ball`` order. Positive letters never
    cancel, so in the monoid these are the trace normal forms."""
    _check_mode(mode)
    if max_len < 0:
        raise ValueError("max_len must be a non-negative integer")
    if mode == "monoid":
        return [Word._of(ambient, w) for w, _, _ in _ball(ambient, mode, max_len)]
    return [GroupElement._inserted(ambient, w, ()) for w, _, _ in _ball(ambient, mode, max_len)]


class RealizationReport(
    collections.namedtuple("RealizationReport", "target status witness bound candidates")
):
    """Outcome of a bounded realizability search.

    ``status`` is ``"found"`` with a verified witness assignment, or
    ``"exhausted"``: no assignment of elements of canonical length <= bound
    realizes the target. ``candidates`` counts the assignments tried, one
    vertex at a time, as ``_bounded_search`` describes.
    """

    __slots__ = ()

    @property
    def found(self):
        return self.status == "found"

    def serialize(self):
        lines = [f"status={self.status}", f"bound={self.bound}"]
        if self.witness is not None:
            for v in self.target.vertices:
                lines.append(f"witness {v}={self.witness[v]}")
        return "\n".join(lines) + "\n"


def commutes_along(target, mode, members):
    """Whether members i, j commute exactly when target vertices i, j are adjacent."""
    verts = target.vertices
    return all(
        _commute(mode, members[i], members[j]) == target.adjacent(verts[i], verts[j])
        for i, j in itertools.combinations(range(len(verts)), 2)
    )


def _free_root(word):
    """Primitive root of a word of a free monoid (signed letters act as
    monoid letters): the first candidate that is a literal root."""
    return _root(word, lambda r, k: r * k == word)[0]


def _projection_key(mode, pattern):
    """Key of a projection onto a non-adjacent pair x, y, given as its
    pattern over ``_FREE_PAIR`` (x as a, y as b, signs kept; a table build
    keys each pattern once), None when it is trivial: two projections commute
    exactly when one is trivial or their keys are equal. Monoid: the
    primitive root (Lyndon and Schutzenberger). Group: commuting elements of
    a free group are powers of one c r c^-1, so the free reduction c z c^-1
    (z cyclically reduced) keys on c and the primitive root of z up to
    inversion."""
    if mode == "monoid":
        return _free_root(pattern) if pattern else None
    letters = lex_normal_letters(_FREE_PAIR, pattern)  # a, b do not commute: free reduction
    if not letters:
        return None
    i, n = 0, len(letters)
    while letters[i] == (letters[n - 1 - i][0], -letters[n - 1 - i][1]):
        i += 1
    root = _free_root(letters[i : n - i])
    return letters[:i], min(root, _inverse(root))  # keys are only compared for equality


def _commute_masks(mode, pool):
    """Per-candidate bitmask of the pool members it commutes with (every
    element commutes with itself), in three steps.

    1. Keys: the pool's letter tuples form a prefix tree, built once (a
       ``_ball`` pool lists each parent before its children; other pools add
       their missing prefixes as nodes). Per non-adjacent pair x, y, a node
       takes its parent's pattern, extended by its last letter relabelled
       onto ``_FREE_PAIR`` when that letter's base is x or y: one step per
       node and pair. Element i keeps the members whose pattern is trivial or
       has the key of its own (``_projection_key``). In the monoid that is
       the commutation test itself. Keys are compared within a pair, so each
       pattern a member carries is keyed once per call.
    2. Total commutation (group): v commutes with u when supp(v) lies in the
       AND of the closed neighbourhoods over supp(u): ``raag.commutes_totally``
       on bitmasks, the link factor of Servatius' centralizer theorem.
    3. Exact test (group): projections are not faithful, so the pairs left
       are checked exactly by ``raag.group_commute`` (two stack insertions).
       It runs only on pairs with an element longer than 2 letters; on
       shorter pairs the keys are exact (proof in ``TestCommuteMasks``).
    """
    if not pool:
        return []
    graph, group = pool[0].graph, mode == "group"
    nodes, at = {(): 0}, []  # the prefix tree, letters -> node; each member's node
    parents, lasts = [], []  # of node n > 0 at n - 1: its parent and its last letter
    for e in pool:
        w = e.letters
        n, k = nodes.get(w), len(w)
        while n is None:  # climb to the longest prefix already in the tree
            k -= 1
            n = nodes.get(w[:k])
        for k in range(k + 1, len(w) + 1):
            parents.append(n)
            lasts.append(w[k - 1])
            n = nodes[w[:k]] = len(lasts)
        at.append(n)
    masks = [(1 << len(pool)) - 1] * len(pool)
    known = {}  # pattern -> key, shared by the pairs of this call
    for x, y in graph.non_adjacent_pairs():
        free = {x: "a", y: "b"}  # the group relabels letters and keeps their signs
        free = {(v, e): (n, e) if group else n for v, n in free.items() for e in (1, -1)}
        ids, patterns, step = [0], [()], {}  # node -> id; id -> pattern; (id, letter) -> id
        for parent, letter in zip(parents, lasts):
            f = free.get(letter)
            if f is None:  # a base other than x, y: the parent's pattern
                ids.append(ids[parent])
                continue
            grown = ids[parent], f
            i = step.get(grown)
            if i is None:
                i = step[grown] = len(patterns)
                patterns.append(patterns[grown[0]] + (f,))
            ids.append(i)
        for i in {ids[n] for n in at}:  # the patterns members carry, not bare prefixes
            if patterns[i] not in known:
                known[patterns[i]] = _projection_key(mode, patterns[i])
        keys = [known[patterns[ids[n]]] for n in at]
        classes = {}
        for i, key in enumerate(keys):
            classes[key] = classes.get(key, 0) | 1 << i
        for i, key in enumerate(keys):
            if key is not None:
                masks[i] &= classes.get(None, 0) | classes[key]
    long = group and sum(1 << i for i, e in enumerate(pool) if len(e.letters) > 2)
    if long:  # two elements of length <= 2: the keys are exact
        closed, bit = _closed_masks(graph), {v: 1 << k for k, v in enumerate(graph.vertices)}
        supports, total = {}, {}  # support -> its members; link -> members inside it
        for i, s in enumerate(sum({bit[b] for b, _ in e.letters}) for e in pool):
            supports[s] = supports.get(s, 0) | 1 << i
        for s, members in supports.items():
            link = -1  # every vertex: the identity's link
            for x in _iter_bits(s):
                link &= closed[x]
            if link not in total:
                total[link] = sum(m for t, m in supports.items() if not t & ~link)
            for i in _iter_bits(members):
                near = -1 if long >> i & 1 else long  # a short i: the long members
                for j in _iter_bits(masks[i] & ~total[link] & near & ~((2 << i) - 1)):  # after i
                    if not group_commute(pool[i], pool[j]):
                        masks[i] ^= 1 << j
                        masks[j] ^= 1 << i
    return masks


def _table(ambient, mode, max_len):
    """The pool (``canonical_elements``), its commutation masks
    (``_commute_masks``) and the default search's start domain: the least
    element of each commutation class (elements commuting with exactly the
    same elements). All three depend on the ambient, mode and bound alone."""
    pool = canonical_elements(ambient, mode, max_len)
    masks = _commute_masks(mode, pool)
    least = {m: i for i, m in reversed(list(enumerate(masks)))}
    return pool, masks, sum(1 << i for i in least.values())


def _bounded_search(table, target, strict):
    """The first assignment of pool elements to the target's vertices, in
    canonical order, that commutes exactly along its edges (or None), with
    the candidates tried. Forward checking, as ``find_embedding`` also runs
    (``graphs._forward_check``): assigning c narrows each later vertex's
    domain bitmask to c's commutation mask, or its complement where the
    target pair is not an edge, and backtracks once a domain is empty.
    ``strict`` asks for pairwise-distinct elements (the subset reading): the
    search starts from the whole pool and also clears c. The default allows
    repeats and tries only class representatives (``_table``), which finds
    the same first witness and counts only their tries. A failed state the
    search remembers is not searched again but counts its tries again."""
    pool, masks, start = table
    tverts = target.vertices
    want_edge = [[target.adjacent(u, v) for v in tverts[i + 1 :]] for i, u in enumerate(tverts)]
    domains = [(1 << len(pool)) - 1 if strict else start] * len(tverts)
    found, examined = _forward_check(want_edge, masks, domains, strict)
    return None if found is None else [pool[c] for c in found], examined


def phi_search(target, ambient, mode, max_len, strict=False):
    """Bounded search for a family realizing the target commutation graph.

    Candidates are all distinct canonical elements of the ambient monoid or
    group with length <= max_len (``_table``), and ``_bounded_search``
    assigns them to the target's vertices; ``strict`` requires
    pairwise-distinct elements. A found witness is re-verified on all
    pairs, with fresh commutation computations, before the report is
    returned. The search is a single depth-first pass, so reports are
    deterministic, and ``candidates`` is its count of assignments tried.
    """
    if max_len < 1:
        raise ValueError("max_len must be a positive integer")
    _check_mode(mode)
    if not target.vertices:
        return RealizationReport(target, "found", {}, max_len, 0)
    assignment, examined = _bounded_search(_table(ambient, mode, max_len), target, strict)
    if assignment is None:
        return RealizationReport(target, "exhausted", None, max_len, examined)
    if not commutes_along(target, mode, assignment):
        raise AssertionError("witness failed the final commutation re-check")
    witness = dict(zip(target.vertices, assignment))
    return RealizationReport(target, "found", witness, max_len, examined)
