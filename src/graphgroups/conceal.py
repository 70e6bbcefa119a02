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

import collections

from .commgraph import ElementFamily, _ball, _check_max_len
from .graphs import Graph, _fresh_name, find_embedding, format_graph
from .raag import GroupElement, group_commute
from .trace import Word, _follow_table, _inverse


class EligibilityReport(collections.namedtuple("EligibilityReport", "eligible diagnostics")):
    __slots__ = ()

    def __bool__(self):
        return self.eligible


def eligible(graph):
    """Check the degree condition for the concealment construction.

    Eligible means: some vertex has degree <= n-3, and the graph does not
    have vertices of degree n-2 and n-3 at the same time. Diagnostics name
    the blocking vertices otherwise.
    """
    n = len(graph)
    degree = {v: graph.degree(v) for v in graph.vertices}
    small = [v for v, d in degree.items() if d <= n - 3]
    deg_nm2 = [v for v, d in degree.items() if d == n - 2]
    deg_nm3 = [v for v, d in degree.items() if d == n - 3]
    diagnostics = []
    if not small:
        degrees = " ".join(f"{v}={d}" for v, d in degree.items())
        diagnostics.append(
            f"no vertex of degree <= {n - 3} (degrees: {degrees or 'none'})"
        )
    if deg_nm2 and deg_nm3:
        diagnostics.append(
            f"vertices of degree {n - 2} ({' '.join(deg_nm2)}) and "
            f"degree {n - 3} ({' '.join(deg_nm3)}) both present"
        )
    return EligibilityReport(bool(small) and not (deg_nm2 and deg_nm3), tuple(diagnostics))


class ConcealmentResult(
    collections.namedtuple("ConcealmentResult", "gamma omega e f g e0 e1 tau")
):
    """The built concealment: the original graph, the one-vertex-larger
    graph, the chosen vertices and the generator substitution (tau maps each
    gamma vertex to a positive Word over omega)."""

    __slots__ = ()

    def apply_tau(self, word):
        """Image of a signed word over gamma under the substitution."""
        if word.graph is not self.gamma and word.graph != self.gamma:
            raise ValueError("word over a different ambient graph than gamma")
        letters = []
        for base, sign in word.letters:
            image = self.tau[base].letters
            if sign > 0:
                letters.extend(image)
            else:
                letters.extend(_inverse(image))
        return Word._of(self.omega, tuple(letters))

    def serialize(self):
        lines = [format_graph(self.omega).rstrip("\n")]
        for v in self.gamma.vertices:
            lines.append(f"tau {v} = {self.tau[v]}")
        return "\n".join(lines) + "\n"


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
    degree = {v: graph.degree(v) for v in graph.vertices}
    e = min((v for v, d in degree.items() if d <= n - 3), key=lambda v: (-degree[v], v))
    near = graph.neighbors(e)
    f, g = [v for v in graph.vertices if v != e and v not in near][:2]

    taken = set(graph.vertices)
    e0 = _fresh_name(e + "_0", taken)
    taken.add(e0)
    e1 = _fresh_name(e + "_1", taken)

    kept = [v for v in graph.vertices if v != e]
    edges = [edge for edge in graph.edges() if e not in edge]
    for a in sorted(near):
        edges.append((e0, a))
        edges.append((e1, a))
    edges.append((e0, f))
    edges.append((e1, g))
    omega = Graph(kept + [e0, e1], edges)

    tau = {}
    for v in graph.vertices:
        if v == e:
            tau[v] = Word._of(omega, ((e0, 1), (e1, 1), (e0, 1), (e1, 1)))
        else:
            tau[v] = Word._of(omega, ((v, 1),))
    return ConcealmentResult(
        gamma=graph, omega=omega, e=e, f=f, g=g, e0=e0, e1=e1, tau=tau
    )


def verify_no_embedding(result):
    """True when the original graph has no induced embedding into the built
    graph (``find_embedding``: a complete forward-checking search over
    neighbourhood bitmasks)."""
    return find_embedding(result.gamma, result.omega) is None


class TauInjectivityReport(
    collections.namedtuple(
        "TauInjectivityReport", "bound element_count morphism_failures collisions"
    )
):
    """Bounded-ball verification of the induced morphism.

    ``morphism_failures`` lists edges of the original graph whose generator
    images fail to commute (the morphism would be ill-defined);
    ``collisions`` lists pairs of distinct elements with equal images within
    the ball of radius ``bound``.
    """

    __slots__ = ()

    @property
    def passed(self):
        return not self.morphism_failures and not self.collisions


def _tau_steps(result, index, keep, up):
    """Per letter l of gamma: tau(l)'s letters and its follow-mask steps over
    omega (``trace._follow_table``) folded into one (need, kept, passed).
    tau(l) appends to an image with follow mask f exactly when f holds need,
    and the mask becomes kept | f & passed. A letter that neither kept nor
    passed holds puts the bit ``len(index)``, which no mask holds, into need:
    such a tau(l) is no normal form and is never appended."""
    never = 1 << len(index)
    steps = {}
    for v in result.gamma.vertices:
        for s in (1, -1):
            tail = result.apply_tau(Word._of(result.gamma, ((v, s),))).letters
            need, kept, passed = 0, 0, never - 1
            for i in map(index.get, tail):
                if not kept >> i & 1:
                    need |= 1 << i if passed >> i & 1 else never
                kept, passed = keep[i] | kept & up[i], passed & up[i]
            steps[v, s] = tail, need, kept, passed
    return steps


def _tau_images(result, max_len):
    """The ball of radius max_len as (element letters, image letters). As
    tau(w l) = tau(w) tau(l), tau(l) is appended to the parent's image with
    one composite step of the image's follow mask per ball letter
    (``_tau_steps``) when the mask holds its need; otherwise it is inserted,
    and the mask is recomputed over the result."""
    _, index, keep, up = _follow_table(result.omega)
    steps = _tau_steps(result, index, keep, up)
    every = (1 << len(index)) - 1
    parents = []  # (image, follow mask) of the elements shorter than max_len
    for w, parent, last in _ball(result.gamma, "group", max_len):
        if not w:
            image, follow = (), every
        else:
            image, follow = parents[parent]
            tail, need, kept, passed = steps[last]
            if follow & need == need:
                image, follow = image + tail, kept | follow & passed
            else:
                image, follow = GroupElement._inserted(result.omega, image, tail).letters, every
                for j in map(index.get, image):
                    follow = keep[j] | follow & up[j]
        if len(w) < max_len:
            parents.append((image, follow))
        yield w, image


def verify_tau_injective(result, max_len):
    """Check well-definedness on the defining relations and injectivity on
    the ball of canonical elements of length <= max_len. Images come from
    ``_tau_images`` and are hashed: a collision of images is exactly a pair
    of distinct elements the morphism identifies."""
    _check_max_len(max_len, 1)
    gamma = result.gamma
    failures = [
        (a, b)
        for a, b in gamma.edges()
        if not group_commute(result.tau[a], result.tau[b])
    ]
    seen = {}  # image letters -> the first element letters with that image
    collisions = []
    for w, image in _tau_images(result, max_len):
        first = seen.setdefault(image, w)
        if first is not w:
            collisions.append(tuple(GroupElement._inserted(gamma, x, ()) for x in (first, w)))
    return TauInjectivityReport(
        bound=max_len,
        element_count=len(seen) + len(collisions),
        morphism_failures=tuple(failures),
        collisions=tuple(collisions),
    )


def monoid_phi_witness(result):
    """The substituted generator family over the built graph: every original
    vertex except e maps to itself, e maps to the word e0 e1 e0 e1. Its
    commutation graph matches the original graph vertex for vertex."""
    members = [result.tau[v] for v in result.gamma.vertices]
    return ElementFamily(result.omega, "monoid", members)
