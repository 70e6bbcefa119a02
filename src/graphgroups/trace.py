"""Words over a graph and the graph-monoid operations on them.

Two letters commute exactly when their bases are distinct and adjacent in the
ambient graph. Equality of monoid elements is decided through the projection
family: one deletion morphism per vertex (onto a rank-1 free monoid, recorded
as a letter count) and one per non-adjacent vertex pair (onto a rank-2 free
monoid, recorded as the letter subsequence). Two positive words represent the
same element exactly when all projections agree, and that family assembles
into an embedding of the whole monoid into a direct product of free monoids.

The lexicographic normal form is computed by one backward-scan stack
insertion, ``_insert``, shared with the group machinery (signed letters order
by base, positive before negative; on signed letters it also cancels inverse
pairs). For positive words it gives the canonical representative underlying
``trace_normal_form``. ``_follow_table`` reads it as a bitmask automaton.
"""

from __future__ import annotations

import math
import operator

from .graphs import clique_number


def _str_letter(letter):
    """The letter as a ``(str, sign)`` tuple: one that is one is kept, not
    copied, and one that is not a pair (a string is none, even of two
    characters) is refused."""
    try:
        base, sign = () if isinstance(letter, str) else letter
    except (TypeError, ValueError):
        raise ValueError(f"letter must be a (vertex, sign) pair, got {letter!r}") from None
    return letter if type(letter) is tuple and type(base) is str else (str(base), sign)


def check_letters(graph, letters):
    """Letters from outside as a tuple of ``(str, sign)`` tuples, once every
    base is a vertex of graph and every sign is +1 or -1; ``Word`` and
    ``GroupElement`` both check here, and only their constructors do.

    One bulk test accepts a word and keeps a given tuple: every letter is a
    plain tuple (their types and hashes are taken in C), and each distinct
    letter, of which a valid word has at most 2|V|, is a vertex and a sign.
    Only a word that fails it is checked letter by letter, which coerces
    (``[1, 1]`` becomes ``("1", 1)``) or names the first bad letter.
    """
    letters = tuple(letters)
    if set(map(type, letters)) <= {tuple}:
        try:
            distinct = set(letters)
        except TypeError:  # a letter with an unhashable part
            distinct = [()]  # which fails the test below
        for letter in distinct:
            if len(letter) != 2:
                break
            base, sign = letter
            if type(base) is not str or base not in graph or sign not in (1, -1):
                break
        else:
            return letters
    letters = tuple(map(_str_letter, letters))
    for base, sign in letters:
        if base not in graph:
            raise ValueError(f"unknown vertex {base!r}")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
    return letters


class Word:
    """An immutable sequence of signed letters over an ambient graph.

    A letter is a ``(base, sign)`` pair with sign +1 or -1; monoid operations
    require every sign to be +1. Letters from outside are checked once, by
    ``check_letters``; words the program rebuilds from letters it holds
    (products, powers, inverses, normal forms, roots, projections) come
    from ``_of`` and are not checked again.
    Equality and hashing are literal (same graph, same letter sequence);
    semantic equality lives in ``trace_equal`` and the group module.
    """

    __slots__ = ("graph", "letters")

    def __init__(self, graph, letters=()):
        self.graph = graph
        self.letters = check_letters(graph, letters)

    @classmethod
    def _of(cls, graph, letters):
        """The word of a tuple of letters built from checked ones, unchecked."""
        word = object.__new__(cls)
        word.graph = graph
        word.letters = letters
        return word

    @classmethod
    def parse(cls, graph, text):
        """Parse whitespace-separated letter tokens; a trailing apostrophe
        marks an inverse letter (``a b a' c``)."""
        letters = []
        for token in text.split():
            sign = 1
            base = token
            if token.endswith("'"):
                sign = -1
                base = token[:-1]
            if not base or base.endswith("'"):
                raise ValueError(f"bad letter token {token!r}")
            if base not in graph:
                raise ValueError(f"unknown vertex {base!r} in word")
            letters.append((base, sign))
        return cls._of(graph, tuple(letters))

    def __str__(self):
        return " ".join(b if s > 0 else b + "'" for b, s in self.letters)

    def __repr__(self):
        return f"Word({str(self)!r})"

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters and (
            self.graph is other.graph or self.graph == other.graph
        )

    def __hash__(self):
        return hash((self.graph, self.letters))

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        _require_same_graph(self, other)
        return Word._of(self.graph, self.letters + other.letters)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return Word._of(self.graph, self.letters * n)

    def inverse(self):
        return Word._of(self.graph, _inverse(self.letters))

    @property
    def is_positive(self):
        return all(s > 0 for _, s in self.letters)


def _inverse(letters):
    """The letters of the inverse word: reversed, each sign flipped."""
    return tuple((b, -s) for b, s in reversed(letters))


def _require_monoid(word):
    if not word.is_positive:
        raise ValueError("monoid operation on a word with inverse letters")


def _require_same_graph(u, v):
    if u.graph is not v.graph and u.graph != v.graph:
        raise ValueError("words over different ambient graphs")


# -- projections -------------------------------------------------------


def _coordinates(word, vertices, pairs):
    """Projections of a word, lazily: the letter count of each vertex in
    ``vertices`` (rank-1), then the base subsequence of each pair in
    ``pairs`` (rank-2)."""
    letters = word.letters
    for x in vertices:
        yield sum(1 for b, _ in letters if b == x)
    for x, y in pairs:  # tuple(generator) would resize, filling CPython's tuple free lists
        yield tuple([b for b, _ in letters if b == x or b == y])


def project_rho(word, x):
    """Occurrences of vertex x in a monoid word (the image in the rank-1
    free monoid is determined by its length)."""
    _require_monoid(word)
    if x not in word.graph:
        raise ValueError(f"unknown vertex {x!r}")
    return next(_coordinates(word, (x,), ()))


def project_sigma(word, x, y):
    """Subsequence of the occurrences of the non-adjacent pair {x, y}.

    The pair must be distinct and non-adjacent; the deletion morphism onto a
    rank-2 free monoid is only defined there.
    """
    _require_monoid(word)
    g = word.graph
    if g.adjacent(x, y):  # reflexive, and it names an unknown vertex
        raise ValueError(f"pair ({x!r}, {y!r}) is not a non-adjacent pair")
    return Word._of(g, tuple((b, 1) for b in next(_coordinates(word, (), ((x, y),)))))


# -- equality, normal form, commutation --------------------------------


def trace_equal(u, v):
    """Projection-based equality: all vertex counts and all non-adjacent pair
    subsequences agree."""
    _require_monoid(u)
    _require_monoid(v)
    _require_same_graph(u, v)
    if len(u) != len(v):
        return False
    g = u.graph
    coords = (g.vertices, g.non_adjacent_pairs())
    return all(map(operator.eq, _coordinates(u, *coords), _coordinates(v, *coords)))


def _insert(graph, stack, letters, origins=None):
    """Push letters in turn onto a stack holding the lexicographic normal
    form of a positive word or of a reduced signed word, keeping it so.

    Each letter scans backward past letters with adjacent bases and stops at
    the first letter with its own base or a non-adjacent one. If that is its
    inverse, both cancel (so a signed input that is not reduced comes out
    reduced). Otherwise the letter goes just before the leftmost scanned
    letter that is greater, or at the end: NF(w x) is NF(w) with x inserted
    among the trailing letters that commute with x, and that is the least
    such place.

    ``origins``, if given, is kept parallel to the stack: pushed letters get
    None, and a cancelled letter's entry is removed. Callers prime the stack
    with a reduced word, so cancelling a letter of origin None is an error.
    """
    for letter in letters:
        base, sign = letter
        neighbors = graph.neighbors(base)
        j = len(stack) - 1
        at = j + 1
        while j >= 0:
            b2, s2 = stack[j]
            if b2 == base:
                if s2 != sign:
                    at = None
                break
            if b2 not in neighbors:
                break
            if b2 > base:  # the bases differ, so this is the letter order
                at = j
            j -= 1
        if at is None:
            del stack[j]
            if origins is not None and origins.pop(j) is None:
                raise AssertionError("cancellation inside a reduced factor")
        else:
            stack.insert(at, letter)
            if origins is not None:
                origins.insert(at, None)


def _follow_table(graph):
    """``_insert`` as an automaton: the signed letters in order (by base,
    positive first), their indices, and per letter l the masks keep[l] and
    up[l]. follow(w), the letters that inserting into w's stack appends, is
    every letter for the empty word and keep[l] | follow(w) & up[l] for w l:
    a scan stops at l for l and for bases other than l's and not adjacent to
    it, and goes past l for the adjacent bases greater than l's. Each base's
    neighbourhood is read once."""
    letters = [(v, s) for v in graph.vertices for s in (1, -1)]  # vertices are sorted
    index = {letter: i for i, letter in enumerate(letters)}
    keep, up = [], []
    for b in graph.vertices:
        i = index[(b, 1)]
        near = sum(3 << index[(v, 1)] for v in graph.neighbors(b))  # both signs of each
        apart = ((1 << len(letters)) - 1) & ~near & ~(3 << i)
        keep += [1 << i | apart, 2 << i | apart]
        up += [near >> i + 2 << i + 2] * 2  # the adjacent bases above b
    return letters, index, keep, up


def lex_normal_letters(graph, letters):
    """Lexicographically least rearrangement reachable by swapping adjacent
    commuting letters, positive before negative at the same base.

    The input is a positive word or a reduced signed word, inserted into an
    empty stack by ``_insert`` (which reduces a signed word that is not).
    """
    stack = []
    _insert(graph, stack, letters)
    return tuple(stack)


def trace_normal_form(word):
    """Canonical representative: lexicographically least word in the
    commutation class. Idempotent; equal normal forms iff trace_equal."""
    _require_monoid(word)
    return Word._of(word.graph, lex_normal_letters(word.graph, word.letters))


def trace_commute(u, v):
    """Commutation test, localized per non-adjacent pair: the two
    subsequences s, t must commute in the free monoid, st = ts (then both
    are powers of one word, by Lyndon and Schutzenberger)."""
    _require_monoid(u)
    _require_monoid(v)
    _require_same_graph(u, v)
    pairs = u.graph.non_adjacent_pairs()
    coords = zip(_coordinates(u, (), pairs), _coordinates(v, (), pairs))
    return all(s + t == t + s for s, t in coords)


# -- primitive roots ---------------------------------------------------


def iter_trace_prefixes(letters):
    """Candidate proper roots of a word: for each k > 1 dividing every
    letter count, largest first, the pair (root, k) where root keeps the
    first count/k occurrences of each letter.

    A prefix of a trace is fixed by how many occurrences of each letter it
    takes, so this root is the only possible k-th root; callers check it.
    """
    counts = {}
    for l in letters:
        counts[l] = counts.get(l, 0) + 1
    d = math.gcd(*counts.values())
    for k in range(d, 1, -1):
        if d % k:
            continue
        quota = {l: c // k for l, c in counts.items()}
        root = []
        for l in letters:
            if quota[l]:
                quota[l] -= 1
                root.append(l)
        yield tuple(root), k


def _root(letters, is_power):
    """The first candidate (r, k) of ``iter_trace_prefixes``, largest k first,
    with is_power(r, k), else (letters, 1): the one root finder, to which each
    caller gives its own power test (trace, group or free-monoid equality)."""
    return next((c for c in iter_trace_prefixes(letters) if is_power(*c)), (letters, 1))


def primitive_root(word):
    """Maximal-exponent root: a word r and exponent k with r**k equivalent to
    the input and r not itself a proper power.

    Tries the one candidate root of each possible exponent, largest first,
    and tests it by power equality.
    """
    _require_monoid(word)
    if len(word) == 0:
        raise ValueError("primitive root of the empty word is undefined")
    g = word.graph
    root, k = _root(word.letters, lambda r, k: trace_equal(Word._of(g, r) ** k, word))
    return Word._of(g, lex_normal_letters(g, root)), k


# -- product embedding -------------------------------------------------


class ProductEmbeddingTable:
    """Coordinates of the embedding into a direct product of free monoids.

    One rank-1 coordinate per vertex (a letter count) and one rank-2
    coordinate per non-adjacent pair (a letter subsequence). Evaluating two
    words gives equal tuples exactly when they represent the same element.
    """

    __slots__ = ("graph", "rho_coords", "sigma_coords")

    def __init__(self, graph):
        self.graph = graph
        self.rho_coords = graph.vertices
        self.sigma_coords = graph.non_adjacent_pairs()

    @property
    def rank1_count(self):
        return len(self.rho_coords)

    @property
    def rank2_count(self):
        return len(self.sigma_coords)

    def evaluate(self, word):
        _require_monoid(word)
        if word.graph is not self.graph and word.graph != self.graph:
            raise ValueError("word over a different ambient graph")
        return tuple(_coordinates(word, self.rho_coords, self.sigma_coords))


def embed_into_product(graph):
    """Projection table for the embedding into a product of |V| rank-1 and
    (number of non-adjacent pairs) rank-2 free monoids."""
    return ProductEmbeddingTable(graph)


def max_free_commutative_rank(graph):
    """Largest rank of a free commutative submonoid: the clique number."""
    return clique_number(graph)
