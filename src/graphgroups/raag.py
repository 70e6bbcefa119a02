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
class, read off the cancellation in g g by that same insertion), pure factors
of cyclically reduced elements (one primitive commuting piece per
co-component of the support), and centralizer witnesses of the
form p k1 k2 p^-1 with k1 a product of pure-factor powers and k2 commuting
totally with the cyclic reduction, the exponents of k1 read off projections
(the part that depends on g alone is cached per g).
"""

from __future__ import annotations

import collections
import functools

from .graphs import co_components, induced
from .trace import Word, _insert, _inverse, _root, check_letters


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
    ``Word`` holds, products and powers included, use ``_inserted`` and
    check nothing again. Equality compares graph and word; the hash, the word.
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
        return Word(self.graph, self.letters)

    def support(self):
        """Vertices occurring in the reduced word (representative-free)."""
        return frozenset(b for b, _ in self.letters)

    def inverse(self):
        return self._inserted(self.graph, (), _inverse(self.letters))

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.graph != other.graph:
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
        return self.graph == other.graph and self.letters == other.letters

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


def _supports_commute(graph, mine, theirs):
    """theirs - {x} lies in N(x) for each x in mine."""
    return all(theirs - {x} <= graph.neighbors(x) for x in mine)


def commutes_totally(u, v):
    """Every support vertex of u is adjacent (or equal) to every support
    vertex of v, after one pair check (``_reduced_pair``)."""
    u, v = _reduced_pair(u, v)
    return _supports_commute(u.graph, u.support(), v.support())


def _letters_commute(graph, u_letters, v_letters):
    """Whether u v = v u, for normal forms u and v, by two stack insertions
    (``_insert``): v's letters after u's, and u's after v's. Each stack is
    its product's normal form, so the products are equal when the stacks are."""
    uv, vu = list(u_letters), list(v_letters)
    _insert(graph, uv, v_letters)
    _insert(graph, vu, u_letters)
    return uv == vu


def group_commute(u, v):
    """Whether u v = v u: one pair check, then ``_letters_commute``."""
    u, v = _reduced_pair(u, v)
    return _letters_commute(u.graph, u.letters, v.letters)


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
    support subgraph, each block reduced to a primitive power. Powers of a
    block multiply without cancellation, so a root is a trace prefix of its
    word, signed letters acting as monoid letters (``trace._root``)."""
    h = group_reduce(h)
    if not is_cyclically_reduced(h):
        raise ValueError("pure factors require a cyclically reduced element")
    element = functools.partial(GroupElement._inserted, h.graph, ())
    factors = []
    for block in co_components(induced(h.graph, h.support())):
        members = set(block)
        piece = element(tuple(l for l in h.letters if l[0] in members))
        root, k = _root(piece.letters, lambda r, k: element(r * k) == piece)
        factors.append((element(root), k))
    return PureFactorization(tuple(factors))


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


@functools.lru_cache(maxsize=64)
def _centralizer_structure(g):
    """g = p h p^-1 and the pure factors of h, for a reduced g (immutable,
    and the cache key holds its graph)."""
    decomposition = cyclic_reduce(g)
    return decomposition, pure_factors(decomposition.h)


def centralizer_witness(g, k):
    """Centralizer decomposition of k with respect to g.

    Write g = p h p^-1 with h cyclically reduced and pure factors r_1..r_n.
    C(h) = <r_1> x ... x <r_n> x A(link supp h) (Servatius), so if k commutes
    with g, each c_i is read off q = p^-1 k p: deleting the letters outside
    the block of r_i is a retraction, which leaves r_i**c_i. A one-vertex
    block lies in the link, so its c_i is 0 and its letters stay in
    k2 = k1^-1 q. A failed check raises AssertionError, never a wrong witness.
    p, h and the pure factors are cached for the last 64 g, so calls that
    repeat g compute them once; a one-off call costs what it did before.
    One pair check, then ``group_commute``'s test on the checked letters.
    """
    g, k = _reduced_pair(g, k)
    graph = g.graph
    decomposition, factorization = _centralizer_structure(g)
    p, h = decomposition.p, decomposition.h
    if not _letters_commute(graph, g.letters, k.letters):
        return CentralizerOutcome(
            "proved-non-commuting", None, decomposition, factorization
        )
    q = GroupElement._inserted(graph, (), _inverse(p.letters) + k.letters + p.letters)
    k1 = GroupElement.identity(graph)
    exponents = []
    for root, _ in factorization.factors:
        block = root.support()
        c = 0
        if len(block) > 1:
            letters = tuple(l for l in q.letters if l[0] in block)
            projection = GroupElement._inserted(graph, (), letters)
            c = projection.length // root.length
            expected = root**c
            if expected != projection:
                c, expected = -c, expected.inverse()
            if expected != projection:
                raise AssertionError("projection is not a power of its pure factor")
            k1 = k1 * expected
        exponents.append(c)
    k2 = k1.inverse() * q
    if not _supports_commute(graph, k2.support(), h.support()):
        raise AssertionError("k2 does not commute totally with h")
    witness = CentralizerWitness(p=p, exponents=tuple(exponents), k2=k2)
    return CentralizerOutcome("witness", witness, decomposition, factorization)
