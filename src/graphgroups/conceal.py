"""The concealment construction: hide a graph inside a bigger one.

For an eligible graph (one with a vertex of degree at most n-3, but not
vertices of degree n-2 and n-3 simultaneously, n the vertex count), a chosen
vertex e is split into two new non-adjacent vertices e0 and e1 that inherit
e's neighbourhood; e0 additionally gets one non-neighbour f of e, and e1
another one, g. The substitution sending e to the word e0 e1 e0 e1 (and
fixing everything else) respects all defining relations, so it induces a
morphism of the groups, while the original graph no longer embeds in the new
one. The family obtained from the substituted generators still commutes
exactly along the original graph's edges, in both the monoid and the group.

Injectivity of the induced morphism is verified here on bounded balls only;
reports state the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commgraph import ElementFamily, canonical_elements
from .graphs import Graph, find_embedding, format_graph
from .raag import GroupElement, group_commute
from .trace import Word


@dataclass(frozen=True)
class EligibilityReport:
    eligible: bool
    diagnostics: tuple

    def __bool__(self):
        return self.eligible


def eligible(graph):
    """Check the degree condition for the concealment construction.

    Eligible means: some vertex has degree <= n-3, and the graph does not
    have vertices of degree n-2 and n-3 at the same time. Diagnostics name
    the blocking vertices otherwise.
    """
    n = len(graph)
    small = [v for v in graph.vertices if graph.degree(v) <= n - 3]
    deg_nm2 = [v for v in graph.vertices if graph.degree(v) == n - 2]
    deg_nm3 = [v for v in graph.vertices if graph.degree(v) == n - 3]
    diagnostics = []
    if not small:
        degrees = " ".join(f"{v}={graph.degree(v)}" for v in graph.vertices)
        diagnostics.append(
            f"no vertex of degree <= {n - 3} (degrees: {degrees or 'none'})"
        )
    if deg_nm2 and deg_nm3:
        diagnostics.append(
            f"vertices of degree {n - 2} ({' '.join(deg_nm2)}) and "
            f"degree {n - 3} ({' '.join(deg_nm3)}) both present"
        )
    return EligibilityReport(bool(small) and not (deg_nm2 and deg_nm3), tuple(diagnostics))


@dataclass(frozen=True)
class ConcealmentResult:
    """The built concealment: the original graph, the one-vertex-larger
    graph, the chosen vertices and the generator substitution."""

    gamma: Graph
    omega: Graph
    e: str
    f: str
    g: str
    e0: str
    e1: str
    tau: dict  # gamma vertex -> positive Word over omega

    def apply_tau(self, word):
        """Image of a signed word over gamma under the substitution."""
        letters = []
        for base, sign in word.letters:
            image = self.tau[base].letters
            if sign > 0:
                letters.extend(image)
            else:
                letters.extend((b, -s) for b, s in reversed(image))
        return Word(self.omega, tuple(letters))

    def serialize(self):
        lines = [format_graph(self.omega).rstrip("\n")]
        for v in self.gamma.vertices:
            lines.append(f"tau {v} = {self.tau[v]}")
        return "\n".join(lines) + "\n"


def _fresh_name(base, taken):
    name = base
    while name in taken:
        name += "_"
    return name


def build_concealment(graph):
    """Construct the concealment of an eligible graph.

    e is the vertex of maximal degree among those of degree <= n-3 (ties by
    least name); f and g are the two least-named non-neighbours of e. The new
    graph keeps every edge not incident to e, joins e0 and e1 to all of e's
    neighbours, and adds the edges e0-f and e1-g.
    """
    report = eligible(graph)
    if not report:
        raise ValueError(
            "graph is not eligible for concealment: " + "; ".join(report.diagnostics)
        )
    n = len(graph)
    small = [v for v in graph.vertices if graph.degree(v) <= n - 3]
    e = sorted(small, key=lambda v: (-graph.degree(v), v))[0]
    non_neighbours = [
        v for v in graph.vertices if v != e and v not in graph.neighbors(e)
    ]
    f, g = non_neighbours[0], non_neighbours[1]

    taken = set(graph.vertices)
    e0 = _fresh_name(e + "_0", taken)
    taken.add(e0)
    e1 = _fresh_name(e + "_1", taken)

    kept = [v for v in graph.vertices if v != e]
    edges = [edge for edge in graph.edges() if e not in edge]
    for a in sorted(graph.neighbors(e)):
        edges.append((e0, a))
        edges.append((e1, a))
    edges.append((e0, f))
    edges.append((e1, g))
    omega = Graph(kept + [e0, e1], edges)

    tau = {}
    for v in graph.vertices:
        if v == e:
            tau[v] = Word(omega, ((e0, 1), (e1, 1), (e0, 1), (e1, 1)))
        else:
            tau[v] = Word(omega, ((v, 1),))
    return ConcealmentResult(
        gamma=graph, omega=omega, e=e, f=f, g=g, e0=e0, e1=e1, tau=tau
    )


def verify_no_embedding(result):
    """True when the original graph has no induced embedding into the built
    graph (exhaustive backtracking)."""
    return find_embedding(result.gamma, result.omega) is None


@dataclass(frozen=True)
class TauInjectivityReport:
    """Bounded-ball verification of the induced morphism.

    ``morphism_failures`` lists edges of the original graph whose generator
    images fail to commute (the morphism would be ill-defined);
    ``collisions`` lists pairs of distinct elements with equal images within
    the ball of radius ``bound``.
    """

    bound: int
    element_count: int
    morphism_failures: tuple
    collisions: tuple

    @property
    def passed(self):
        return not self.morphism_failures and not self.collisions


def verify_tau_injective(result, max_len):
    """Check well-definedness on the defining relations and injectivity on
    the ball of canonical elements of length <= max_len.

    Each image is its parent's with tau of the last letter inserted, since
    tau(w l) = tau(w) tau(l). Images are hashed: a collision of images is
    exactly a pair of distinct elements the morphism identifies.
    """
    if max_len < 1:
        raise ValueError("max_len must be a positive integer")
    gamma, omega = result.gamma, result.omega
    failures = [
        (a, b)
        for a, b in gamma.edges()
        if not group_commute(result.tau[a], result.tau[b])
    ]

    alphabet = [(v, s) for v in gamma.vertices for s in (1, -1)]
    tau_of = {l: result.apply_tau(Word(gamma, (l,))).letters for l in alphabet}
    ball = canonical_elements(gamma, "group", max_len)
    images = {(): ()}  # element letters -> canonical image letters
    seen = {}
    collisions = []
    for element in ball:
        w = element.letters
        if w:
            images[w] = GroupElement._inserted(omega, images[w[:-1]], tau_of[w[-1]]).letters
        img = images[w]
        if img in seen:
            collisions.append((seen[img], element))
        else:
            seen[img] = element
    return TauInjectivityReport(
        bound=max_len,
        element_count=len(ball),
        morphism_failures=tuple(failures),
        collisions=tuple(collisions),
    )


def monoid_phi_witness(result):
    """The substituted generator family over the built graph: every original
    vertex except e maps to itself, e maps to the word e0 e1 e0 e1. Its
    commutation graph matches the original graph vertex for vertex."""
    members = [result.tau[v] for v in result.gamma.vertices]
    return ElementFamily(result.omega, "monoid", members)
