"""Elements of a graph group (right-angled Artin group) over an ambient graph.

An element is stored as its canonical reduced word: geodesic, and
lexicographically least among the reduced words of the element (any two
reduced words of the same element differ only by swaps of adjacent commuting
letters, so the shared lexicographic normal form picks a canonical one).

Reduction and normal form are one left-to-right stack insertion
(``trace._insert``): each incoming letter scans backward past letters with
adjacent bases and cancels on meeting its inverse; otherwise it goes to the
least place among the letters it scanned past. The result contains no factor
l ... l^-1 whose intermediate letters all commute with l, which characterizes
geodesics here, and is already in lexicographic normal form, so a product
u v inserts only the letters of v after those of u.

Beyond the word problem this module provides reduced product factorizations
(which letters cancel when one reduced word is inserted after another),
cyclic reduction (the unique p h p^-1 form with h shortest in its conjugacy
class, read off the cancellation in g g by that same insertion), and from one
structure per element, cached for the last 64: pure factors of cyclically
reduced elements (one primitive commuting piece per co-component of the
support) and centralizer witnesses p k1 k2 p^-1 (k1 a product of pure-factor
powers, k2 commuting totally with the cyclic reduction) read off projections
by Servatius' theorem, with no commutation test. The structure also holds
the element's refusal record, p^-1, and each block's pure-factor powers,
filled on demand.
"""

from __future__ import annotations

import collections
import functools
import itertools

from .graphs import co_components
from .trace import Word, _insert, _inverse, _root, check_letters, lex_normal_letters


def _cancel(graph, u_letters, v_letters):
    """Cancellation in the product of two reduced words u and v: the kept
    letters of u, the cancelled letters of u and the kept letters of v.

    The cancelled letters of u spell the x with u = u'x and v = x^-1 v'
    (cancellation in a product of two reduced words only ever pairs a letter
    of v against a letter of u). u must be in normal form; the kept letters
    of v come out in stack order, which spells v' up to commuting swaps.
    """
    stack = list(u_letters)
    origins = list(range(len(stack)))  # index into u, or None for v's letters
    _insert(graph, stack, v_letters, origins)
    kept = set(origins)
    return (
        tuple(l for i, l in enumerate(u_letters) if i in kept),
        tuple(l for i, l in enumerate(u_letters) if i not in kept),
        tuple(l for l, origin in zip(stack, origins) if origin is None),
    )


class GroupElement:
    """A group element in canonical reduced form.

    The constructor checks letters from outside as ``Word``'s does
    (``trace.check_letters``) and canonicalizes them in one stack insertion,
    which reduces and sorts at once. Rebuilds from letters an element or a
    ``Word`` holds, products, powers and ``word()`` included, use
    ``_inserted`` or ``Word._of`` and check nothing again. Equality compares
    graph and word; the hash, the word.
    """

    __slots__ = ("graph", "letters")

    def __init__(self, graph, letters=()):
        stack = []
        _insert(graph, stack, check_letters(graph, letters))
        self.graph = graph
        self.letters = tuple(stack)

    @classmethod
    def _inserted(cls, graph, prefix, letters):
        """The element prefix * letters, for prefix a normal form (which an
        insertion into an empty stack would rebuild) and checked letters."""
        stack = list(prefix)
        _insert(graph, stack, letters)
        element = object.__new__(cls)
        element.graph = graph
        element.letters = tuple(stack)
        return element

    @classmethod
    def identity(cls, graph):
        return cls._inserted(graph, (), ())

    @property
    def length(self):
        return len(self.letters)

    @property
    def is_identity(self):
        return not self.letters

    def word(self):
        return Word._of(self.graph, self.letters)

    def support(self):
        """Vertices occurring in the reduced word (representative-free)."""
        return frozenset(b for b, _ in self.letters)

    def inverse(self):
        return self._inserted(self.graph, (), _inverse(self.letters))

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.graph is not other.graph and self.graph != other.graph:
            raise ValueError("elements over different ambient graphs")
        return self._inserted(self.graph, self.letters, other.letters)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        prefix = self.letters if n else ()  # letters * -1 is ()
        return self._inserted(self.graph, prefix, self.letters * (n - 1))

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.letters == other.letters and (
            self.graph is other.graph or self.graph == other.graph
        )

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        return str(self.word())

    def __repr__(self):
        return f"GroupElement({str(self)!r})"


def group_reduce(x):
    """Canonical geodesic representative of the element a word spells
    (an element is returned as it is)."""
    if isinstance(x, GroupElement):
        return x
    if isinstance(x, Word):
        return GroupElement._inserted(x.graph, (), x.letters)
    raise TypeError(f"expected Word or GroupElement, got {type(x).__name__}")


def _reduced_pair(u, v):
    """u and v as elements (``group_reduce``), once both lie over one graph;
    the one pair check of the two-element operations, made once per call."""
    u, v = group_reduce(u), group_reduce(v)
    if u.graph is not v.graph and u.graph != v.graph:
        raise ValueError("elements over different ambient graphs")
    return u, v


def group_equal(u, v):
    u, v = _reduced_pair(u, v)
    return u.letters == v.letters


def support(g):
    return group_reduce(g).support()


def commutes_totally(u, v):
    """Every support vertex of u is adjacent (or equal) to every support
    vertex of v, after one pair check (``_reduced_pair``)."""
    u, v = _reduced_pair(u, v)
    theirs = v.support()
    return all(theirs - {x} <= u.graph.neighbors(x) for x in u.support())


def group_commute(u, v):
    """Whether u v = v u: one pair check, then two stack insertions
    (``_insert``): v's letters after u's, and u's after v's. Each stack is
    its product's normal form, so the products are equal when the stacks are."""
    u, v = _reduced_pair(u, v)
    uv, vu = list(u.letters), list(v.letters)
    _insert(u.graph, uv, v.letters)
    _insert(u.graph, vu, u.letters)
    return uv == vu


# -- reduced product factorization --------------------------------------


def multiply_factorize(u, v):
    """Split a product into u = u'x and v = x^-1 v' with u'v' reduced."""
    u, v = _reduced_pair(u, v)
    parts = _cancel(u.graph, u.letters, v.letters)
    return tuple(GroupElement._inserted(u.graph, (), part) for part in parts)


# -- cyclic reduction ----------------------------------------------------


class CyclicDecomposition(collections.namedtuple("CyclicDecomposition", "p h")):
    """g = p * h * p^-1 as a reduced product, h shortest in its conjugacy
    class; h is unique for the element."""

    __slots__ = ()

    def element(self):
        return self.p * self.h * self.p.inverse()


def is_cyclically_reduced(g):
    """Nothing cancels in g * g."""
    g = group_reduce(g)
    return not _cancel(g.graph, g.letters, g.letters)[1]


def cyclic_reduce(g):
    """Read g = p h p^-1 off the cancellation in g * g.

    g * g = p h h p^-1 as a reduced product, so inserting g after itself
    cancels exactly the letters c of p^-1 in the first copy; with k its kept
    letters, g = k c, so p = c^-1 and h = p^-1 g p = c k.
    """
    g = group_reduce(g)
    graph = g.graph
    kept, cancelled, _ = _cancel(graph, g.letters, g.letters)
    return CyclicDecomposition(
        p=GroupElement._inserted(graph, (), _inverse(cancelled)),
        h=GroupElement._inserted(graph, (), cancelled + kept),
    )


# -- pure factors --------------------------------------------------------


class PureFactorization(collections.namedtuple("PureFactorization", "factors")):
    """Primitive commuting pieces of a cyclically reduced element, one per
    co-component of its support subgraph, with positive exponents (factors
    is a tuple of (GroupElement, int) pairs)."""

    __slots__ = ()

    def reconstruct(self, graph):
        result = GroupElement.identity(graph)
        for base_element, exponent in self.factors:
            result = result * base_element**exponent
        return result


def pure_factors(h):
    """Factor a cyclically reduced element over the co-components of its
    support subgraph, each block a primitive power, as read off its cached
    structure (``_centralizer_structure``); a nonempty p there refuses h."""
    decomposition, factorization = _centralizer_structure(group_reduce(h))[:2]
    if decomposition.p.letters:
        raise ValueError("pure factors require a cyclically reduced element")
    return factorization


# -- centralizer witnesses ------------------------------------------------


class CentralizerWitness(collections.namedtuple("CentralizerWitness", "p exponents k2")):
    """k = p * (product of factor_i ** exponent_i) * k2 * p^-1 with every
    support vertex of k2 adjacent to every support vertex of h."""

    __slots__ = ()


class CentralizerOutcome(
    collections.namedtuple(
        "CentralizerOutcome", "status witness decomposition factorization"
    )
):
    """``status`` is ``"witness"`` (k commutes with g, and ``witness`` holds
    its decomposition) or ``"proved-non-commuting"``."""

    __slots__ = ()

    @property
    def found(self):
        return self.status == "witness"

    def reconstruct(self):
        if self.witness is None:
            return None
        w = self.witness
        roots = (root for root, _ in self.factorization.factors)
        k1 = PureFactorization(tuple(zip(roots, w.exponents))).reconstruct(w.p.graph)
        return w.p * k1 * w.k2 * w.p.inverse()


class _Powers(dict):
    """Letters of r**c by signed exponent c, each taken on its first lookup;
    the cached structure holds one per block of more than one vertex."""

    __slots__ = ("root",)

    def __init__(self, root):
        self.root = root

    def __missing__(self, c):
        letters = self[c] = (self.root ** c).letters
        return letters


@functools.lru_cache(maxsize=64)
def _centralizer_structure(g):
    """g = p h p^-1, the pure factors r of h, and as sets of signed letters
    the star of supp h (supp h and every vertex adjacent to all of it), each
    block with r and the powers of r (no letters and no powers for a
    one-vertex block) and the rest of the star, for a reduced g (the key
    holds its graph); then g's refusal and p^-1's letters (None when p is
    empty).
    h's letters on a block (a co-component of supp h) are in normal form, as
    all its other letters commute with them, and powers of a block multiply
    without cancellation, so a root is a trace prefix of them (``_root``)."""
    decomposition = cyclic_reduce(g)
    letters = lambda vertices: frozenset(itertools.product(vertices, (1, -1)))
    graph, (p, h) = g.graph, decomposition
    supp = h.support()
    star = letters(supp.union(v for v in graph.vertices if supp <= graph.neighbors(v)))
    factors, blocks = [], []
    for block in map(letters, co_components(graph, supp)):
        piece = tuple(filter(block.__contains__, h.letters))
        root, k = _root(piece, lambda r, k: lex_normal_letters(graph, r * k) == piece)
        r = GroupElement._inserted(graph, (), root)
        factors.append((r, k))
        blocks.append((block, r, _Powers(r)) if r.length > 1 else (frozenset(), r, None))
    rest = star.difference(*(block for block, _, _ in blocks))
    factorization = PureFactorization(tuple(factors))
    refused = CentralizerOutcome("proved-non-commuting", None, decomposition, factorization)
    p_inverse = p.inverse().letters if p.letters else None
    return decomposition, factorization, star, tuple(blocks), rest, refused, p_inverse


def centralizer_witness(g, k):
    """Centralizer decomposition of k with respect to g.

    Write g = p h p^-1 with h cyclically reduced and pure factors r_1..r_n.
    k commutes with g exactly when q = p^-1 k p lies in
    C(h) = <r_1> x ... x <r_n> x A(link supp h) (Servatius), decided here
    with no commutation test. q must lie in the group of the star of supp h,
    the direct product of those of the blocks (co-components of supp h) and
    of the rest, so q's letters on a block are the normal form of its
    projection there. For a block of more than one vertex that must be
    r_i**c_i, of length |c_i| |r_i|, and starting as r_i does for c_i > 0
    and as r_i^-1 does for c_i < 0 (r_i is cyclically reduced, so those
    first letters differ). A one-vertex block commutes with the whole star, so its c_i is
    0 and k2 = k1^-1 q is q without its letters on multi-vertex blocks.
    p, h, the pure factors, the star, the refusal and p^-1 are cached for
    the last 64 g, with each block's powers r_i**c_i as they are first
    compared; when p is empty, a k with a letter off the star, or refused at
    a power already compared, costs no insertion.
    """
    g, k = _reduced_pair(g, k)
    graph = g.graph
    decomposition, factorization, star, blocks, rest, refused, p_inverse = (
        _centralizer_structure(g)
    )
    p, q = decomposition.p, k.letters
    if p_inverse:
        q = GroupElement._inserted(graph, p_inverse, q + p.letters).letters
    if not star.issuperset(q):
        return refused
    exponents = []
    for block, root, powers in blocks:
        projection = tuple(filter(block.__contains__, q))
        c, off = divmod(len(projection), root.length)
        if projection:
            if projection[0] != root.letters[0]:
                c = -c
            if off or projection != powers[c]:
                return refused
        exponents.append(c)
    k2 = GroupElement._inserted(graph, tuple(filter(rest.__contains__, q)), ())
    witness = CentralizerWitness(p, tuple(exponents), k2)
    return CentralizerOutcome("witness", witness, decomposition, factorization)
