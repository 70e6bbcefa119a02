"""The four verdict workloads: inputs, calls into the program, known answers.

A workload makes its inputs from the seed with its own code (``__init__``),
turns them into program objects (``build``, timed as set-up) and hands out
batches of ops. An op is ``(pin, payload)``: ``call`` runs one verdict in the
program, ``check`` compares it with the known answer and returns a problem
string or None, and ``render`` gives the output bytes that the pinned
digest of ``pin`` covers. The run loop measures only whole batches.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random

import checks


def run_cli(cli, argv):
    """One in-process ``ggm`` invocation: exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _rendered_cli(result):
    code, out = result
    return f"exit={code}\n{out}"


# -- words ----------------------------------------------------------------------


class Words:
    """Normal form, group reduction, equality, commutation and primitive
    root of random words of lengths 8, 64 and 512 over five graphs.

    A round holds, per graph and length, ``PER_ROUND[length]`` ops of each
    kind, in seeded order. Round 0 comes from a fixed seed and has a pinned
    digest; the others come from the run's seed.
    """

    name = "words"
    GRAPHS = (
        ("C4", checks.standard("cycle", 4)),
        ("path(6)", checks.standard("path", 6)),
        ("cycle(8)", checks.standard("cycle", 8)),
        ("E(2,3)", checks.e_graph(2, 3)),
        ("complete(5)", checks.standard("complete", 5)),
    )
    PER_ROUND = {8: 16, 64: 6, 512: 1}
    # Root length per word length. A root of 2**j letters makes the seed's
    # root search try every trace prefix of 2**(j-1) letters, up to
    # 5**(2**(j-1)) of them over complete(5): 8 keeps each search under a
    # second there, 16 would take minutes.
    ROOT_LENGTH = {8: 2, 64: 8, 512: 8}
    KINDS = ("nf", "reduce", "equal", "commute", "root")
    ROUNDS = 14

    def __init__(self, seed, workdir):
        self.adj = {}
        self.pairs = {}
        for gname, (verts, edges) in self.GRAPHS:
            self.adj[gname] = checks.adjacency(verts, edges)
            self.pairs[gname] = checks.non_adjacent_pairs(self.adj[gname])
        self.rounds = [self._round(random.Random("words-reference"), "ref")]
        self.rounds += [
            self._round(random.Random(f"words-{seed}-{r}"), None) for r in range(1, self.ROUNDS)
        ]

    def _round(self, rng, pin):
        specs = []
        for gname, (verts, _) in self.GRAPHS:
            for length, count in self.PER_ROUND.items():
                for kind in self.KINDS:
                    for _ in range(count):
                        specs.append((gname, kind, length) + self._inputs(rng, gname, verts, kind, length))
        rng.shuffle(specs)
        return [(pin, spec) for spec in specs]

    def _inputs(self, rng, gname, verts, kind, length):
        adj = self.adj[gname]

        def word(n):
            return tuple((rng.choice(verts), 1) for _ in range(n))

        if kind == "nf":
            return word(length), None, None
        if kind == "reduce":
            base = word(3 * length // 4)
            w = list(base)
            for _ in range(length // 8):
                x, s = rng.choice(verts), rng.choice((1, -1))
                pos = rng.randrange(len(w) + 1)
                w[pos:pos] = [(x, s), (x, -s)]
            return tuple(w), None, base
        if kind == "equal":
            u = word(length)
            if rng.random() < 0.5:
                return u, checks.shuffle(adj, u, rng), None
            v = list(u)
            blocked = [
                i for i in range(length - 1)
                if v[i][0] != v[i + 1][0] and not checks.commute(adj, v[i], v[i + 1])
            ]
            if blocked:
                i = rng.choice(blocked)
                v[i], v[i + 1] = v[i + 1], v[i]
            else:
                i = rng.randrange(length)
                v[i] = (rng.choice([x for x in verts if x != v[i][0]]), 1)
            return u, tuple(v), None
        if kind == "commute":
            if rng.random() < 0.5:
                r = word(max(1, length // 8))
                return checks.shuffle(adj, r * 8, rng), checks.shuffle(adj, r * 4, rng), None
            return word(length), word(length // 2), None
        m = self.ROOT_LENGTH[length]
        return checks.shuffle(adj, word(m) * (length // m), rng), None, length // m

    def build(self, gg, cli):
        self.gg = gg
        graphs = {gname: gg.Graph(verts, edges) for gname, (verts, edges) in self.GRAPHS}
        self.batches_built = [
            [
                (pin, (spec, gg.Word(graphs[spec[0]], spec[3]),
                       None if spec[4] is None else gg.Word(graphs[spec[0]], spec[4])))
                for pin, spec in batch
            ]
            for batch in self.rounds
        ]

    def batches(self):
        first, *rest = self.batches_built
        yield first
        # Round 0 runs again only once the seeded rounds are used up.
        yield from itertools.cycle(rest + [[(None, payload) for _, payload in first]])

    def trace_batches(self):
        return self.batches_built[:2]

    def call(self, payload):
        (gname, kind, *_), u, v = payload
        gg = self.gg
        if kind == "nf":
            return gg.trace_normal_form(u)
        if kind == "reduce":
            return gg.group_reduce(u)
        if kind == "equal":
            return gg.trace_equal(u, v)
        if kind == "commute":
            return gg.trace_commute(u, v)
        return gg.primitive_root(u)

    def check(self, payload, result):
        (gname, kind, length, a, b, extra), _, _ = payload
        adj, pairs = self.adj[gname], self.pairs[gname]
        if kind == "nf":
            ok = tuple(result.letters) == checks.lex_least(adj, a)
        elif kind == "reduce":
            ok = tuple(result.letters) == checks.lex_least(adj, extra)
        elif kind == "equal":
            ok = result is checks.trace_equal(adj, pairs, a, b)
        elif kind == "commute":
            ok = result is checks.trace_commute(adj, pairs, a, b)
        else:
            root, exponent = result
            letters = tuple(root.letters)
            ok = (
                exponent >= extra
                and exponent * len(letters) == len(a)
                and checks.trace_equal(adj, pairs, letters * exponent, a)
            )
        return None if ok else f"{kind} {gname} n={length}"

    def render(self, payload, result):
        kind = payload[0][1]
        if kind == "root":
            return f"{result[0]} ^{result[1]}"
        return str(result)


# -- search ---------------------------------------------------------------------


class Search:
    """In-process ``ggm search phi`` calls.

    Ambient sweep: C4 (group mode, bound 2) and path(4) (monoid mode, bound
    2) targets into every graph on 4 and 5 vertices, so no two calls share a
    pool. Target sweep: every graph on 3 to 5 vertices into cycle(5), in
    group mode with bound 2 and monoid mode with bound 3, so pools repeat.
    """

    name = "search"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.files = {}
        self.adj = {}

        def add(key, graph):
            verts, edges = graph
            path = workdir / f"{key}.graph"
            path.write_text(checks.format_text(verts, edges))
            self.files[key] = (str(path), graph)
            self.adj[key] = checks.adjacency(verts, edges)
            return key

        c4 = add("c4", checks.standard("cycle", 4))
        p4 = add("p4", checks.standard("path", 4))
        c5 = add("c5", checks.standard("cycle", 5))
        self.ops = []
        ambients = checks.graphs_up_to_iso(4) + checks.graphs_up_to_iso(5)
        for i, graph in enumerate(ambients):
            a = add(f"ambient{i}", graph)
            # Test 06's claim: the square pattern is realizable in the group
            # exactly when the ambient graph has an induced square.
            self.ops.append((f"amb-c4-group-{i}", c4, a, "group", 2,
                             checks.embeds(self.adj[c4], self.adj[a])))
            self.ops.append((f"amb-p4-monoid-{i}", p4, a, "monoid", 2, None))
        targets = checks.graphs_up_to_iso(3) + checks.graphs_up_to_iso(4) + checks.graphs_up_to_iso(5)
        for j, graph in enumerate(targets):
            t = add(f"target{j}", graph)
            self.ops.append((f"tgt-group-{j}", t, c5, "group", 2, None))
            self.ops.append((f"tgt-monoid-{j}", t, c5, "monoid", 3, None))

    def build(self, gg, cli):
        self.cli = cli
        for path, (verts, edges) in self.files.values():
            with open(path, encoding="utf-8") as handle:
                g = gg.parse_graph(handle.read(), filename=path)
            if tuple(g.vertices) != tuple(sorted(verts)) or set(g.edges()) != {
                tuple(sorted(e)) for e in edges
            }:
                raise RuntimeError(f"{path} does not parse to the graph written")

    def _pass(self, p):
        order = list(self.ops)
        random.Random(f"search-{self.seed}-{p}").shuffle(order)
        return [(spec[0], spec) for spec in order]

    def batches(self):
        for p in itertools.count():
            yield self._pass(p)

    def trace_batches(self):
        return [self._pass(0)]

    def call(self, payload):
        _, t, a, mode, bound, _ = payload
        return run_cli(self.cli, ["search", "phi", "--target", self.files[t][0],
                                  "--ambient", self.files[a][0], "--mode", mode,
                                  "--max-len", str(bound)])

    def check(self, payload, result):
        op_id, t, a, mode, bound, expect = payload
        code, out = result
        lines = out.splitlines()
        found = code == 0
        if code not in (0, 1) or not lines or lines[0] != (
            f"status={'found' if found else 'exhausted'} bound={bound}"
        ):
            return "search malformed output"
        if expect is not None and found != expect:
            return f"search verdict {op_id.rsplit('-', 1)[0]}"
        if found:
            witness = {}
            for line in lines[1:]:
                if line.startswith("witness "):
                    v, word = line[len("witness "):].split("=", 1)
                    witness[v] = checks.parse_word(word)
            tadj, aadj = self.adj[t], self.adj[a]
            if set(witness) != set(tadj):
                return "search witness incomplete"
            pairs = checks.non_adjacent_pairs(aadj)
            for x, y in itertools.combinations(sorted(tadj), 2):
                u, v = witness[x], witness[y]
                if mode == "group":
                    commutes = checks.group_commute(aadj, u, v)
                else:
                    commutes = checks.trace_commute(aadj, pairs, u, v)
                if commutes != (y in tadj[x]):
                    return "search witness fails re-check"
        return None

    def render(self, payload, result):
        return _rendered_cli(result)


# -- centralizer ----------------------------------------------------------------


class Centralizer:
    """``centralizer_witness(g, k)`` on every ordered pair of the radius-3
    balls of C4 (217 elements) and path(4) (277 elements). A batch is one
    row: a fixed g against every k of its ball. Rows run in seeded order,
    each at most once, so no pair repeats within a run."""

    name = "centralizer"
    GRAPHS = (
        ("C4", (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])),
        ("path(4)", (["w", "x", "y", "z"], [("w", "x"), ("x", "y"), ("y", "z")])),
    )
    SIZES = {"C4": 217, "path(4)": 277}
    TRACE_ROWS = 64

    def __init__(self, seed, workdir):
        self.adj, self.pairs, self.balls = {}, {}, {}
        for gname, (verts, edges) in self.GRAPHS:
            adj = checks.adjacency(verts, edges)
            self.adj[gname], self.pairs[gname] = adj, checks.non_adjacent_pairs(adj)
            self.balls[gname] = checks.ball(adj, 3)
            if len(self.balls[gname]) != self.SIZES[gname]:
                raise RuntimeError(f"ball of {gname} has {len(self.balls[gname])} elements")
        self.rows = [(gname, i) for gname, _ in self.GRAPHS for i in range(self.SIZES[gname])]
        random.Random(f"centralizer-{seed}").shuffle(self.rows)

    def build(self, gg, cli):
        self.gg = gg
        self.elements = {}
        for gname, (verts, edges) in self.GRAPHS:
            graph = gg.Graph(verts, edges)
            self.elements[gname] = [gg.GroupElement(graph, w) for w in self.balls[gname]]

    def _row(self, gname, i):
        return [(f"{gname}-{i}", (gname, i, j)) for j in range(self.SIZES[gname])]

    def batches(self):
        for gname, i in self.rows:
            yield self._row(gname, i)

    def trace_batches(self):
        return [self._row(gname, i) for gname, i in self.rows[: self.TRACE_ROWS]]

    def call(self, payload):
        gname, i, j = payload
        elements = self.elements[gname]
        return self.gg.centralizer_witness(elements[i], elements[j])

    def check(self, payload, result):
        gname, i, j = payload
        adj, pairs = self.adj[gname], self.pairs[gname]
        g, k = self.balls[gname][i], self.balls[gname][j]
        if result.status == "witness":
            if result.reconstruct() != self.elements[gname][j]:
                return "centralizer reconstruction"
            k2 = {b for b, _ in result.witness.k2.letters}
            h = {b for b, _ in result.decomposition.h.letters}
            if not all(x == y or y in adj[x] for x in k2 for y in h):
                return "centralizer k2 does not commute totally with h"
            if not checks.projections_commute(pairs, g, k):
                return "centralizer witness for a non-commuting pair"
            return None
        if result.status == "proved-non-commuting":
            if checks.projections_commute(pairs, g, k) and checks.group_commute(adj, g, k):
                return "centralizer commuting pair reported non-commuting"
            return None
        return f"centralizer status {result.status}"

    def render(self, payload, result):
        parts = [result.status, str(result.decomposition.p), str(result.decomposition.h)]
        parts += [f"{root}^{e}" for root, e in result.factorization.factors]
        parts.append(str(getattr(result, "bound", "")))
        if result.witness is not None:
            parts += [str(result.witness.exponents), str(result.witness.k2)]
        return "|".join(parts)


# -- conceal --------------------------------------------------------------------


class Conceal:
    """In-process ``ggm conceal verify <graph> --max-len 3`` on each of the 95
    eligible graphs on 6 vertices. Each pass renames the vertices (keeping
    their order), so no two calls in a run share a graph or a ball."""

    name = "conceal"
    PASSES = 12
    EXPECTED = 95

    def __init__(self, seed, workdir):
        self.seed = seed
        graphs = [
            g for g in checks.graphs_up_to_iso(6) if checks.conceal_eligible(checks.adjacency(*g))
        ]
        if len(graphs) != self.EXPECTED:
            raise RuntimeError(f"{len(graphs)} eligible graphs on 6 vertices")
        self.files = []
        for p in range(self.PASSES):
            files = []
            for i, (verts, edges) in enumerate(graphs):
                rename = {v: f"p{p}{v}" for v in verts}
                text = checks.format_text(
                    [rename[v] for v in verts], [(rename[u], rename[v]) for u, v in edges]
                )
                path = workdir / f"p{p}-g{i}.graph"
                path.write_text(text)
                files.append(str(path))
            self.files.append(files)

    def build(self, gg, cli):
        self.cli = cli
        for files in self.files:
            for path in files:
                with open(path, encoding="utf-8") as handle:
                    if len(gg.parse_graph(handle.read(), filename=path)) != 6:
                        raise RuntimeError(f"{path} does not parse to a 6-vertex graph")

    def _pass(self, p):
        files = self.files[p % self.PASSES]
        order = list(range(len(files)))
        random.Random(f"conceal-{self.seed}-{p}").shuffle(order)
        return [(f"g{i}", files[i]) for i in order]

    def batches(self):
        for p in itertools.count():
            yield self._pass(p)

    def trace_batches(self):
        return [self._pass(0)]

    def call(self, payload):
        return run_cli(self.cli, ["conceal", "verify", payload, "--max-len", "3"])

    def check(self, payload, result):
        code, out = result
        lines = out.splitlines()
        ok = (
            code == 0
            and [line.split(":")[0] for line in lines]
            == ["no-embedding", "phi-witness", "tau-morphism", "tau-injective"]
            and all(line.split(": ", 1)[1].split(" ")[0] == "ok" for line in lines)
            and lines[3].split(" ", 2)[2].startswith("(bound=3, elements=")
        )
        return None if ok else "conceal verify not ok"

    def render(self, payload, result):
        return _rendered_cli(result)


WORKLOADS = {w.name: w for w in (Words, Search, Centralizer, Conceal)}
