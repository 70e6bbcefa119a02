"""Independent answers for the benchmark's verdict checks.

Nothing here calls the program under test. Graphs are plain adjacency
dicts ``{vertex: set_of_neighbours}``; a letter is a ``(base, sign)`` pair,
ordered by base and then positive before negative, as in the program.
"""

from __future__ import annotations

import heapq
import itertools

# -- graphs -------------------------------------------------------------------


def adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def standard(name, n):
    """Edge lists of the named graphs the benchmark uses, on v1..vn."""
    verts = [f"v{k}" for k in range(1, n + 1)]
    if name == "cycle":
        edges = [(verts[k], verts[(k + 1) % n]) for k in range(n)]
    elif name == "path":
        edges = [(verts[k], verts[k + 1]) for k in range(n - 1)]
    elif name == "complete":
        edges = list(itertools.combinations(verts, 2))
    else:
        raise ValueError(name)
    return verts, edges


def e_graph(isolated, pairs):
    """E(i, j): i isolated vertices plus j disjoint edges."""
    n = isolated + 2 * pairs
    verts = [f"v{k}" for k in range(1, n + 1)]
    edges = [(verts[isolated + 2 * k], verts[isolated + 2 * k + 1]) for k in range(pairs)]
    return verts, edges


def graphs_up_to_iso(n):
    """One labelled graph on v1..vn per isomorphism class, as edge lists,
    found as the least edge mask of each orbit under vertex permutations."""
    verts = [f"v{k}" for k in range(1, n + 1)]
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        for perm in perms:
            image = 0
            for i, (a, b) in enumerate(pairs):
                if mask >> i & 1:
                    x, y = sorted((perm[a], perm[b]))
                    image |= 1 << index[(x, y)]
            seen.add(image)
        out.append((verts, [(verts[a], verts[b]) for i, (a, b) in enumerate(pairs) if mask >> i & 1]))
    return out


def embeds(pattern, host):
    """Induced-subgraph embedding by scanning every injection."""
    pv = sorted(pattern)
    for image in itertools.permutations(sorted(host), len(pv)):
        m = dict(zip(pv, image))
        if all((v in pattern[u]) == (m[v] in host[m[u]]) for u, v in itertools.combinations(pv, 2)):
            return True
    return False


def conceal_eligible(adj):
    """Some vertex of degree <= n-3, and not degrees n-2 and n-3 together."""
    n = len(adj)
    degrees = [len(ns) for ns in adj.values()]
    return any(d <= n - 3 for d in degrees) and not (n - 2 in degrees and n - 3 in degrees)


def format_text(verts, edges):
    """The program's graph file format."""
    lines = ["vertices " + " ".join(verts)]
    lines += [f"edge {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def non_adjacent_pairs(adj):
    return [(x, y) for x, y in itertools.combinations(sorted(adj), 2) if y not in adj[x]]


# -- words ----------------------------------------------------------------------


def commute(adj, a, b):
    return a[0] != b[0] and b[0] in adj[a[0]]


def letter_key(letter):
    return (letter[0], letter[1] < 0)


def parse_word(text):
    return tuple((t[:-1], -1) if t.endswith("'") else (t, 1) for t in text.split())


def lex_least(adj, letters):
    """Lexicographically least rearrangement by commuting swaps: the least
    topological order of the dependence graph, which links each letter to
    the last earlier occurrence of every base it does not commute with."""
    n = len(letters)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    last = {}
    for i, (base, _) in enumerate(letters):
        for b, j in last.items():
            if b == base or b not in adj[base]:
                succ[j].append(i)
                indeg[i] += 1
        last[base] = i
    heap = [(letter_key(letters[i]), i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, i = heapq.heappop(heap)
        out.append(letters[i])
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (letter_key(letters[j]), j))
    return tuple(out)


def trace_equal(adj, pairs, u, v):
    """Positive words are equal in the graph monoid exactly when every
    letter count and every non-adjacent pair subsequence agree."""
    if len(u) != len(v):
        return False
    for x in adj:
        if sum(1 for b, _ in u if b == x) != sum(1 for b, _ in v if b == x):
            return False
    for x, y in pairs:
        if [b for b, _ in u if b == x or b == y] != [b for b, _ in v if b == x or b == y]:
            return False
    return True


def trace_commute(adj, pairs, u, v):
    return trace_equal(adj, pairs, u + v, v + u)


def shuffle(adj, letters, rng, rounds=2):
    """Random swaps of adjacent commuting letters (the same monoid element)."""
    w = list(letters)
    for _ in range(rounds * len(w)):
        i = rng.randrange(len(w) - 1) if len(w) > 1 else 0
        if i + 1 < len(w) and commute(adj, w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


# -- group elements -------------------------------------------------------------


def free_reduce(letters):
    out = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def swap_cancel_closure(adj, letters):
    """Every word reachable by swapping adjacent commuting letters and
    cancelling adjacent inverse pairs; it holds every geodesic of the
    element."""
    start = tuple(letters)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a[0] == b[0] and a[1] == -b[1]:
                nw = w[:i] + w[i + 2 :]
            elif commute(adj, a, b):
                nw = w[:i] + (b, a) + w[i + 2 :]
            else:
                continue
            if nw not in seen:
                seen.add(nw)
                stack.append(nw)
    return seen


def canonical(adj, letters):
    """Least geodesic in the element's class, ordered as the program orders
    canonical words (length, then letters)."""
    closure = swap_cancel_closure(adj, letters)
    shortest = min(len(w) for w in closure)
    return min((w for w in closure if len(w) == shortest), key=lambda w: [letter_key(l) for l in w])


def group_equal(adj, u, v):
    """Exact for short words: closures meet exactly for equal elements."""
    cu = swap_cancel_closure(adj, u)
    return tuple(v) in cu or not cu.isdisjoint(swap_cancel_closure(adj, v))


def group_commute(adj, u, v):
    return group_equal(adj, tuple(u) + tuple(v), tuple(v) + tuple(u))


def projections_commute(pairs, u, v):
    """Images of u and v commute in every rank-2 free quotient ``<x, y>``
    (x, y non-adjacent). Necessary for commuting; not sufficient."""
    for keep in pairs:
        pu = [l for l in u if l[0] in keep]
        pv = [l for l in v if l[0] in keep]
        if free_reduce(pu + pv) != free_reduce(pv + pu):
            return False
    return True


def ball(adj, radius):
    """Canonical words of every element of length <= radius."""
    alphabet = [(v, s) for v in sorted(adj) for s in (1, -1)]
    found = set()
    for length in range(radius + 1):
        for combo in itertools.product(alphabet, repeat=length):
            found.add(canonical(adj, combo))
    return sorted(found, key=lambda w: (len(w), [letter_key(l) for l in w]))
