"""Finite simple graphs with the constructions used for graph monoids and groups.

Vertices are names of letters, digits and underscores (``VERTEX_NAME``, all
that the text format and the word syntax can write), in a fixed total
(lexicographic) order used wherever a canonical order is needed. Adjacency is
conceptually reflexive: ``adjacent(v, v)`` reports true, but loops are never
stored. Graphs are immutable values; all operations here are pure functions.
"""

from __future__ import annotations

import itertools
import re

VERTEX_NAME = re.compile(r"[A-Za-z0-9_]+\Z")

_STANDARD = re.compile(
    r"\s*(?:(C4)|(L3)|E\(\s*(\d+)\s*,\s*(\d+)\s*\)"
    r"|complete\(\s*(\d+)\s*\)|cycle\(\s*(\d+)\s*\)|path\(\s*(\d+)\s*\))\s*\Z"
)


class ParseError(ValueError):
    """A graph or word file that violates the text format."""

    def __init__(self, message, filename="<input>", line=None):
        self.filename = filename
        self.line = line
        where = filename if line is None else f"{filename}:{line}"
        super().__init__(f"{where}: {message}")


class Graph:
    """A finite simple graph with vertices named as ``VERTEX_NAME`` allows
    (any other vertex is rejected before sorting).

    Edges are stored as unordered pairs of distinct vertices; ``adjacent``
    treats every vertex as adjacent to itself.
    """

    __slots__ = ("vertices", "_edges", "_adj", "_non_adjacent")

    def __init__(self, vertices, edges=()):
        adj = {}
        for v in vertices:  # checked before sorting, which a non-string could break
            if not isinstance(v, str) or not VERTEX_NAME.match(v):
                raise ValueError(f"bad vertex name {v!r}")
            if v in adj:
                raise ValueError(f"duplicate vertex {v!r}")
            adj[v] = set()
        self.vertices = tuple(sorted(adj))
        eset = set()
        for e in edges:
            try:  # a string is no pair, even of two characters
                u, v = () if isinstance(e, str) else e
            except (TypeError, ValueError):
                raise ValueError(f"edge must be a pair of vertices, got {e!r}") from None
            if u not in adj or v not in adj:
                bad = u if u not in adj else v
                raise ValueError(f"edge endpoint {bad!r} is not a vertex")
            if u == v:
                raise ValueError(f"self-loop at {u!r} not allowed")
            eset.add(frozenset((u, v)))
            adj[u].add(v)
            adj[v].add(u)
        self._edges = frozenset(eset)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._non_adjacent = tuple([
            (u, v) for u, v in itertools.combinations(self.vertices, 2) if v not in adj[u]
        ])

    # -- basic queries -------------------------------------------------

    def __contains__(self, v):
        return v in self._adj

    def __len__(self):
        return len(self.vertices)

    def adjacent(self, u, v):
        """Reflexive adjacency: true when u == v or {u, v} is an edge."""
        if u not in self._adj or v not in self._adj:
            bad = u if u not in self._adj else v
            raise ValueError(f"unknown vertex {bad!r}")
        return u == v or v in self._adj[u]

    def neighbors(self, v):
        if v not in self._adj:
            raise ValueError(f"unknown vertex {v!r}")
        return self._adj[v]

    def degree(self, v):
        """Number of vertices adjacent to and distinct from v."""
        return len(self.neighbors(v))

    def edges(self):
        """Edges as a sorted tuple of sorted pairs."""
        return tuple(sorted(tuple(sorted(e)) for e in self._edges))

    @property
    def edge_count(self):
        return len(self._edges)

    def non_adjacent_pairs(self):
        """Sorted unordered pairs of distinct non-adjacent vertices."""
        return self._non_adjacent

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self.vertices, self._edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self._edges)} edges)"


# -- named graphs ------------------------------------------------------


def standard_graph(name):
    """Build one of the named graphs.

    Recognized names: ``C4``, ``L3``, ``E(i,j)`` (i isolated vertices plus j
    disjoint edges), ``complete(n)``, ``cycle(n)`` (n >= 3) and ``path(n)``
    (path on n vertices). Vertices are named v1, v2, ...
    """
    m = _STANDARD.match(name)
    if m is None:
        raise ValueError(f"unknown standard graph {name!r}")
    c4, l3, ei, ej, kn, cn, pn = m.groups()
    if c4:
        return standard_graph("cycle(4)")
    if l3:
        return standard_graph("path(4)")
    n = int(ei) + 2 * int(ej) if ei is not None else int(kn or cn or pn)
    verts = [f"v{k}" for k in range(1, n + 1)]
    if ei is not None:
        i = int(ei)
        edges = [(verts[i + 2 * k], verts[i + 2 * k + 1]) for k in range(int(ej))]
    elif kn is not None:
        edges = itertools.combinations(verts, 2)
    elif cn is not None:
        if n < 3:
            raise ValueError("cycle(n) needs n >= 3")
        edges = [(verts[k], verts[(k + 1) % n]) for k in range(n)]
    else:
        edges = [(verts[k], verts[k + 1]) for k in range(n - 1)]
    return Graph(verts, edges)


# -- constructions -----------------------------------------------------


def complement(g):
    """Same vertices; distinct u, v adjacent exactly if non-adjacent in g."""
    return Graph(g.vertices, g.non_adjacent_pairs())


def _fresh_name(base, taken):
    """base, with underscores appended until it is not in taken."""
    name = base
    while name in taken:
        name += "_"
    return name


def resolve_name_collisions(g, h):
    """Rename h's vertices away from g's, suffixing with underscores.

    Returns ``(renamed_h, renaming)`` where renaming maps old h-names to new
    ones (only the changed names appear).
    """
    taken = set(g.vertices)
    renaming = {}
    for v in h.vertices:
        if v in taken:
            renaming[v] = _fresh_name(v + "_2", taken.union(h.vertices))
        taken.add(renaming.get(v, v))
    if not renaming:
        return h, {}
    sub = lambda v: renaming.get(v, v)
    renamed = Graph(
        [sub(v) for v in h.vertices], [(sub(u), sub(v)) for u, v in h.edges()]
    )
    return renamed, renaming


def connected_product(g, h):
    """Disjoint union of g and h plus every cross edge.

    Vertex-name collisions are resolved by renaming h's vertices (see
    ``resolve_name_collisions``).
    """
    h, _ = resolve_name_collisions(g, h)
    cross = itertools.product(g.vertices, h.vertices)
    return Graph(
        g.vertices + h.vertices,
        list(g.edges()) + list(h.edges()) + list(cross),
    )


def co_components(g, vertices=None):
    """Connected components of the complement of g, or of the subgraph that
    ``vertices`` induce (no ``induced`` Graph needed), as sorted blocks."""
    remaining = set(g.vertices if vertices is None else vertices)
    blocks = []
    while remaining:
        start = min(remaining)
        block = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in remaining - block - g.neighbors(v):
                block.add(u)
                frontier.append(u)
        remaining -= block
        blocks.append(tuple(sorted(block)))
    return tuple(sorted(blocks))


def induced(g, subset):
    """Subgraph induced by a subset of vertices."""
    sub = set(subset)
    return Graph(sub, [(u, v) for u in sub for v in g.neighbors(u) & sub])


# -- forward-checking search ------------------------------------------


def _iter_bits(mask):
    """Indices of the set bits of a non-negative integer, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _forward_check(want_edge, masks, domains, strict):
    """Depth-first search for candidates c_k in the bitmasks domains[k],
    such that for i < j, c_j is in masks[c_i] (which holds c_i) exactly when
    want_edge[i][j - i - 1]. Forward checking (Haralick and Elliott):
    assigning c ANDs every later domain with masks[c], or its complement
    where no edge is wanted, and backtracks as soon as one is empty;
    ``strict`` also clears c, so the assignment is injective. The least
    assignment, lowest candidates first, comes back as a list, or None,
    with the number of candidates tried. ``domains`` may be a suffix of the
    variables: want_edge rows are read from the end. A failed state, the tuple
    of later domains, fixes its subsearch, so the call remembers it with the
    candidates tried under it (nogood recording, Dechter) and, when it comes up
    again, adds that count unsearched: the count is the plain one. Entering a
    state stacks the level with its candidate: no recursion limit applies.
    """
    if not domains:
        return [], 0
    failed, stack, examined = {}, [], 0  # failed lives for this call only
    bits, level, entered = _iter_bits(domains[0]), tuple(domains), 0
    while True:
        edges, rest = want_edge[-len(level)], level[1:]
        for c in bits:
            examined += 1
            if not rest:
                return [frame[3] for frame in stack] + [c], examined
            near, far = masks[c], ~masks[c]
            if strict:
                near ^= 1 << c
            later = tuple([d & (near if e else far) for d, e in zip(rest, edges)])
            if all(later):
                tried = failed.get(later)
                if tried is None:  # enter it; this level resumes after c
                    stack.append((bits, level, entered, c))
                    bits, level, entered = _iter_bits(later[0]), later, examined
                    break
                examined += tried
        else:  # no candidate left: the level's state has failed
            if not stack:
                return None, examined
            failed[level] = examined - entered
            bits, level, entered, _ = stack.pop()


def _closed_masks(graph):
    """Bitmask over ``graph.vertices`` of each vertex's closed neighbourhood,
    in vertex order; each neighbourhood is read once."""
    bit = {v: 1 << i for i, v in enumerate(graph.vertices)}
    return [sum(bit[u] for u in graph.neighbors(v)) | bit[v] for v in graph.vertices]


# -- induced-subgraph embedding ---------------------------------------


def find_embedding(pattern, host):
    """Search for an injection of pattern into host preserving adjacency
    and non-adjacency (an induced-subgraph isomorphism witness).

    Returns a dict mapping pattern vertices to host vertices, or None when
    none exists. Pattern vertices are assigned in decreasing degree order,
    host vertices tried in their order, by the injective forward-checking
    search (``_forward_check``) over host closed-neighbourhood bitmasks:
    each pattern vertex starts from the host vertices of at least its
    degree, and every assignment narrows the later vertices to the host
    vertices adjacent, or non-adjacent, to the one chosen. Exponential worst
    case, intended for small graphs.
    """
    pnear = {p: pattern.neighbors(p) for p in pattern.vertices}
    pverts = sorted(pnear, key=lambda v: (-len(pnear[v]), v))
    hverts = host.vertices
    if len(pverts) > len(hverts):
        return None
    masks = _closed_masks(host)
    domains = [
        sum(1 << i for i, m in enumerate(masks) if m.bit_count() > len(pnear[p])) for p in pverts
    ]
    want_edge = [[q in pnear[p] for q in pverts[i + 1 :]] for i, p in enumerate(pverts)]
    found, _ = _forward_check(want_edge, masks, domains, True)
    return None if found is None else {p: hverts[c] for p, c in zip(pverts, found)}


def clique_number(g):
    """Size of the largest complete induced subgraph: the largest k for
    which ``find_embedding`` places complete(k) in g."""
    for k in range(len(g)):
        if find_embedding(standard_graph(f"complete({k + 1})"), g) is None:
            return k
    return len(g)


# -- text format -------------------------------------------------------


def parse_graph(text, filename="<input>"):
    """Parse the line-oriented graph format.

    One ``vertices a b c`` line (or several) declares the vertex set, then
    zero or more ``edge a b`` lines. ``#`` starts a comment. Duplicate
    vertices, unknown endpoints and self-loops are rejected.
    """
    names = []
    seen = set()
    edges = []
    declared = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertices":
            declared = True
            for name in tokens[1:]:
                if not VERTEX_NAME.match(name):
                    raise ParseError(f"bad vertex name {name!r}", filename, lineno)
                if name in seen:
                    raise ParseError(f"duplicate vertex {name!r}", filename, lineno)
                seen.add(name)
                names.append(name)
        elif tokens[0] == "edge":
            if len(tokens) != 3:
                raise ParseError("edge line needs exactly two endpoints", filename, lineno)
            u, v = tokens[1], tokens[2]
            for w in (u, v):
                if w not in seen:
                    raise ParseError(f"unknown vertex {w!r} in edge", filename, lineno)
            if u == v:
                raise ParseError(f"self-loop at {u!r} not allowed", filename, lineno)
            edges.append((u, v))
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", filename, lineno)
    if not declared:
        raise ParseError("missing 'vertices' line", filename)
    return Graph(names, edges)


def format_graph(g):
    """Render a graph in the text format accepted by ``parse_graph``."""
    lines = ["vertices " + " ".join(g.vertices) if g.vertices else "vertices"]
    lines.extend(f"edge {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
