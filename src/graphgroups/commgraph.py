"""Commutation graphs of element families and bounded realizability search.

A family of monoid or group elements over an ambient graph has a commutation
graph: vertices are the member indices, edges join commuting members. The
realizability search asks the converse question for a target graph: does some
assignment of elements (of bounded canonical length) to target vertices
commute exactly along the target's edges? An exhausted answer is a
certificate only relative to the stated length bound, which every report
carries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph
from .raag import GroupElement, group_commute, group_reduce
from .trace import (
    Word,
    lex_normal_letters,
    trace_commute,
    trace_normal_form,
    word_key,
)

MODES = ("monoid", "group")


@dataclass(frozen=True)
class ElementFamily:
    """An ordered family of canonical elements (duplicates permitted)."""

    ambient: Graph
    mode: str
    members: tuple

    def __init__(self, ambient, mode, members):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        canonical = []
        for m in members:
            if mode == "monoid":
                if isinstance(m, GroupElement):
                    m = m.word()
                if not m.is_positive:
                    raise ValueError("monoid family member with inverse letters")
            if m.graph != ambient:
                raise ValueError("family member over a different graph")
            canonical.append(
                trace_normal_form(m) if mode == "monoid" else group_reduce(m)
            )
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "members", tuple(canonical))


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


def canonical_elements(ambient, mode, max_len):
    """All distinct canonical elements of length <= max_len, ordered by
    length then lexicographically. The group pool is the ball of that radius:
    every raw signed word of bounded length is reduced and deduplicated."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    seen = {}  # canonical letters -> their group element (None for monoids)
    if mode == "monoid":
        alphabet = [(v, 1) for v in ambient.vertices]
    else:
        alphabet = [s for v in ambient.vertices for s in ((v, 1), (v, -1))]
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            if mode == "monoid":
                seen[lex_normal_letters(ambient, combo)] = None
            else:
                element = GroupElement(ambient, combo)
                seen[element.letters] = element
    ordered = sorted(seen, key=lambda ls: (len(ls), word_key(ls)))
    if mode == "monoid":
        return [Word(ambient, ls) for ls in ordered]
    return [seen[ls] for ls in ordered]


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of a bounded realizability search.

    ``status`` is ``"found"`` with a verified witness assignment, or
    ``"exhausted"``: no assignment of elements of canonical length <= bound
    realizes the target. ``candidates`` counts assignment attempts examined.
    """

    target: Graph
    status: str
    witness: dict | None
    bound: int
    candidates: int

    @property
    def found(self):
        return self.status == "found"

    def serialize(self):
        lines = [f"status={self.status}", f"bound={self.bound}"]
        if self.witness is not None:
            for v in self.target.vertices:
                lines.append(f"witness {v}={self.witness[v]}")
        return "\n".join(lines) + "\n"


def _verify_witness(target, mode, assignment):
    verts = target.vertices
    for i, j in itertools.combinations(range(len(verts)), 2):
        commute = _commute(mode, assignment[i], assignment[j])
        if commute != target.adjacent(verts[i], verts[j]):
            raise AssertionError("witness failed the final commutation re-check")


def _commute_masks(mode, pool):
    """Per-candidate bitmask of the pool members it commutes with (every
    element commutes with itself)."""
    size = len(pool)
    masks = [1 << i for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if _commute(mode, pool[i], pool[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def phi_search(target, ambient, mode, max_len, strict=False):
    """Bounded search for a family realizing the target commutation graph.

    Candidates are all distinct canonical elements of the ambient monoid or
    group with length <= max_len; target vertices are assigned in canonical
    order, pruning against the precomputed pairwise commutation pattern.
    ``strict`` requires pairwise-distinct elements (the subset reading); the
    default allows repeats. A found witness is re-verified on all pairs,
    with fresh commutation computations, before the report is returned.
    The search is a single depth-first pass, so reports are deterministic.
    ``candidates`` in the report counts assignments tried.
    """
    if max_len < 1:
        raise ValueError("max_len must be a positive integer")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tverts = target.vertices
    n = len(tverts)
    if n == 0:
        return RealizationReport(target, "found", {}, max_len, 0)
    pool = canonical_elements(ambient, mode, max_len)
    masks = _commute_masks(mode, pool)
    full = (1 << len(pool)) - 1
    want_edge = [
        [target.adjacent(tverts[i], tverts[j]) for j in range(n)] for i in range(n)
    ]

    def allowed_for(level, assign):
        allowed = full
        for j, a in enumerate(assign):
            allowed &= masks[a] if want_edge[level][j] else full ^ masks[a]
        if strict:
            for a in assign:
                allowed &= full ^ (1 << a)
        return allowed

    examined = 0

    def dfs(assign):
        """Extend assign to all n vertices in place; False when it cannot."""
        nonlocal examined
        for c in _iter_bits(allowed_for(len(assign), assign)):
            examined += 1
            assign.append(c)
            if len(assign) == n or dfs(assign):
                return True
            assign.pop()
        return False

    found = []
    if not dfs(found):
        return RealizationReport(target, "exhausted", None, max_len, examined)
    assignment = [pool[c] for c in found]
    _verify_witness(target, mode, assignment)
    witness = {tverts[i]: assignment[i] for i in range(n)}
    return RealizationReport(target, "found", witness, max_len, examined)
