"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every check is exhaustive over its stated range or
seeded; nothing is sampled loosely where an exhaustive desk-scale sweep is
stated.
"""

import itertools
import random

from graphgroups import (
    Graph,
    GroupElement,
    Word,
    build_concealment,
    centralizer_witness,
    commutation_graph,
    eligible,
    embed_into_product,
    group_commute,
    group_reduce,
    max_free_commutative_rank,
    monoid_phi_witness,
    project_rho,
    standard_graph,
    trace_commute,
    trace_equal,
    trace_normal_form,
    verify_no_embedding,
    verify_tau_injective,
)
from graphgroups.commgraph import _bounded_search, _table
from oracles import (
    all_graphs_up_to,
    all_words,
    bfs_geodesic_length,
    brute_force_clique_number,
    brute_force_embedding_exists,
    free_reduce,
    signed_alphabet,
)


def _report(num, label, failures, detail=""):
    ok = not failures
    line = f"[acceptance {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    extras = [d for d in (detail, "" if ok else f"{len(failures)} failure(s), first: {failures[0]}") if d]
    if extras:
        line += " (" + "; ".join(extras) + ")"
    print(line)
    assert ok, line


def C4():
    return Graph("a b c d".split(), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def L3():
    return Graph("w x y z".split(), [("w", "x"), ("x", "y"), ("y", "z")])


def test_01_projection_equality_matches_normal_form():
    # Over each ambient graph, the partition of all words of length <= 5 by
    # projection signature must coincide with the partition by normal form;
    # together with direct pair calls (exhaustive at length <= 3, seeded
    # samples at length <= 5) this checks agreement on every pair.
    failures = []
    ambients = [C4(), L3(), standard_graph("E(0,2)"), standard_graph("complete(3)")]
    total = 0
    for graph in ambients:
        table = embed_into_product(graph)
        words = list(all_words(graph, 5))
        total += len(words)
        nf = {w.letters: trace_normal_form(w).letters for w in words}
        sig = {w.letters: table.evaluate(w) for w in words}
        nf_to_sig = {}
        sig_to_nf = {}
        for w in words:
            key_nf, key_sig = nf[w.letters], sig[w.letters]
            if nf_to_sig.setdefault(key_nf, key_sig) != key_sig:
                failures.append(("partition", str(w)))
            if sig_to_nf.setdefault(key_sig, key_nf) != key_nf:
                failures.append(("partition", str(w)))
        short = [w for w in words if len(w) <= 3]
        for u in short:
            for v in short:
                if trace_equal(u, v) != (nf[u.letters] == nf[v.letters]):
                    failures.append((str(u), str(v)))
        rng = random.Random(20260809)
        for _ in range(3000):
            u, v = rng.choice(words), rng.choice(words)
            if trace_equal(u, v) != (nf[u.letters] == nf[v.letters]):
                failures.append((str(u), str(v)))
    _report(1, "projection equality agrees with normal-form equality", failures,
            f"{total} words over {len(ambients)} graphs")


def test_02_commutation_criterion_matches_definition():
    failures = []
    pairs = 0
    for graph in (C4(), L3()):
        words = list(all_words(graph, 4))
        for u in words:
            for v in words:
                pairs += 1
                if trace_commute(u, v) != trace_equal(u * v, v * u):
                    failures.append((str(u), str(v)))
    _report(2, "pairwise commutation criterion matches uv = vu", failures,
            f"{pairs} ordered pairs")


def test_03_commuting_pairs_structure():
    # On commuting pairs: distinct elements differ in some letter count, and
    # a letter of u either occurs in v or is adjacent to all of v's letters.
    failures = []
    checked = 0
    for graph in (C4(), L3()):
        words = list(all_words(graph, 4))
        for u in words:
            u_bases = {b for b, _ in u.letters}
            for v in words:
                if not trace_commute(u, v):
                    continue
                checked += 1
                if not trace_equal(u, v):
                    if not any(
                        project_rho(u, x) != project_rho(v, x) for x in graph.vertices
                    ):
                        failures.append(("rho", str(u), str(v)))
                v_bases = {b for b, _ in v.letters}
                for x in u_bases:
                    if x in v_bases:
                        continue
                    if not all(graph.adjacent(x, y) for y in v_bases):
                        failures.append(("occurs-or-adjacent", str(u), str(v), x))
    _report(3, "commuting pairs: count separation and occurs-or-adjacent", failures,
            f"{checked} commuting pairs")


def test_04_geodesic_lengths_match_bfs_oracle():
    failures = []
    words = 0
    for graph in (L3(), C4()):
        alphabet = signed_alphabet(graph)
        for length in range(5):
            for combo in itertools.product(alphabet, repeat=length):
                words += 1
                produced = GroupElement(graph, combo).length
                expected = bfs_geodesic_length(graph, combo)
                if produced != expected:
                    failures.append((graph.vertices, combo, produced, expected))
    _report(4, "reduction length equals rewriting-oracle geodesic length", failures,
            f"{words} signed words")


def test_05_centralizer_witnesses():
    failures = []
    pairs = commuting = 0
    for graph in (C4(), L3()):
        ball = set()
        alphabet = signed_alphabet(graph)
        for length in range(4):
            for combo in itertools.product(alphabet, repeat=length):
                ball.add(GroupElement(graph, combo))
        ball = sorted(ball, key=lambda e: (e.length, e.letters))
        for g in ball:
            for k in ball:
                pairs += 1
                outcome = centralizer_witness(g, k)
                commutes = group_commute(g, k)
                if outcome.status not in ("witness", "proved-non-commuting"):
                    failures.append(("status", str(g), str(k)))
                    continue
                if outcome.found != commutes:
                    failures.append(("presence", str(g), str(k)))
                    continue
                if outcome.found:
                    commuting += 1
                    witness = outcome.witness
                    if outcome.reconstruct() != k:
                        failures.append(("reconstruction", str(g), str(k)))
                    h = outcome.decomposition.h
                    if not all(
                        graph.adjacent(x, y)
                        for x in witness.k2.support()
                        for y in h.support()
                    ):
                        failures.append(("total-commutation", str(g), str(k)))
    _report(5, "centralizer witnesses exactly on commuting pairs", failures,
            f"{pairs} pairs, {commuting} commuting")


def test_06_square_realizability_in_groups():
    # Group realizability of the four-cycle pattern demands an induced
    # four-cycle: exhausted everywhere else (at bound 2 on up to six
    # vertices, and also at bound 3 on up to five), found on the four-cycle
    # itself.
    # The bounded search runs directly, so the DFS is what brute-force
    # embedding checks.
    failures = []
    c4 = standard_graph("C4")
    ambients = all_graphs_up_to(6)
    with_square = 0
    for ambient in ambients:
        has_square = brute_force_embedding_exists(c4, ambient)
        if has_square:
            with_square += 1
            witness, _ = _bounded_search(_table(ambient, "group", 1), c4, False)
            if witness is None:
                failures.append(("expected found", ambient.edges()))
        else:
            for bound in (2, 3) if len(ambient) <= 5 else (2,):
                witness, _ = _bounded_search(_table(ambient, "group", bound), c4, False)
                if witness is not None:
                    failures.append(("expected exhausted", bound, ambient.edges()))
    # On at most five vertices: C4 itself, and C4 plus a fifth vertex joined
    # to none, one, two adjacent, two opposite, three or all four of its
    # vertices. On six: 56 of the 156 graphs (counted by brute force over
    # every injection).
    if with_square != 7 + 56:
        failures.append(("expected exactly 63 ambients with an induced square", with_square))
    _report(6, "group square realizability only with an induced square", failures,
            f"{len(ambients)} ambient graphs")


def test_07_square_realizability_in_monoids():
    # Monoid counterpart: realizable exactly when the four-cycle pattern
    # embeds (the pattern graph is the complement of two disjoint edges).
    # The bounded search runs directly, as in test 06.
    failures = []
    c4 = standard_graph("C4")
    ambients = all_graphs_up_to(5)
    for ambient in ambients:
        embeds = brute_force_embedding_exists(c4, ambient)
        for bound in (2, 3):
            witness, _ = _bounded_search(_table(ambient, "monoid", bound), c4, False)
            if (witness is not None) != embeds:
                failures.append((ambient.edges(), bound, witness, embeds))
    _report(7, "monoid square realizability iff the square embeds", failures,
            f"{len(ambients)} ambient graphs")


def test_08_free_commutative_rank_is_clique_number():
    failures = []
    graphs = all_graphs_up_to(5)
    for g in graphs:
        produced = max_free_commutative_rank(g)
        expected = brute_force_clique_number(g)
        if produced != expected:
            failures.append((g.edges(), produced, expected))
    _report(8, "free commutative rank equals subset-scan clique number", failures,
            f"{len(graphs)} graphs")


def test_09_concealment_construction():
    failures = []
    built = 0
    for gamma in all_graphs_up_to(6):
        if not eligible(gamma):
            continue
        built += 1
        result = build_concealment(gamma)
        if not verify_no_embedding(result):
            failures.append(("embedding survived", gamma.edges()))
        family = monoid_phi_witness(result)
        cg = commutation_graph(family)
        names = cg.vertices
        gverts = gamma.vertices
        if not all(
            cg.adjacent(names[i], names[j]) == gamma.adjacent(gverts[i], gverts[j])
            for i in range(len(gverts))
            for j in range(i + 1, len(gverts))
        ):
            failures.append(("commutation pattern", gamma.edges()))
        report = verify_tau_injective(result, 3)
        if not report.passed:
            failures.append(("tau", gamma.edges(), report.morphism_failures,
                             report.collisions[:1]))
    _report(9, "concealment: no embedding, pattern kept, morphism injective on ball",
            failures, f"{built} eligible graphs up to 6 vertices")


def test_10_group_monoid_divergence():
    failures = []
    graph = Graph(["x", "y", "z"], [("y", "z")])
    word = Word.parse(graph, "x y x' z x y' x' z'")
    if group_reduce(word).is_identity:
        failures.append("word reduced to identity")
    for keep in (("x",), ("y",), ("z",)) + graph.non_adjacent_pairs():
        sub = tuple(l for l in word.letters if l[0] in keep)
        if free_reduce(sub) != ():
            failures.append(("projection not trivial", keep))
    _report(10, "non-trivial group word invisible to rank-1/2 projections", failures)
