import pytest

import graphgroups.conceal as conceal_module
from graphgroups import (
    ConcealmentResult,
    Graph,
    GroupElement,
    Word,
    build_concealment,
    canonical_elements,
    commutation_graph,
    eligible,
    find_embedding,
    induced,
    monoid_phi_witness,
    standard_graph,
    verify_no_embedding,
    verify_tau_injective,
)
from graphgroups.trace import _follow_table
from oracles import (
    all_graphs_up_to,
    all_graphs_up_to_iso,
    follow_table_by_pairs,
    group_ball_size,
    is_isomorphic,
)


def three_isolated():
    return Graph(["e", "f", "g"])


class TestEligibility:
    def test_three_isolated_vertices_eligible(self):
        report = eligible(three_isolated())
        assert report.eligible
        assert report.diagnostics == ()

    def test_l3_blocked_by_both_degrees(self):
        report = eligible(standard_graph("L3"))
        assert not report.eligible
        assert any("both present" in line for line in report.diagnostics)

    def test_complete_graph_has_no_small_vertex(self):
        report = eligible(standard_graph("complete(3)"))
        assert not report.eligible
        assert any("no vertex of degree" in line for line in report.diagnostics)

    def test_build_rejects_ineligible(self):
        with pytest.raises(ValueError):
            build_concealment(standard_graph("L3"))


class TestBuild:
    def test_three_isolated_gives_two_disjoint_edges(self):
        result = build_concealment(three_isolated())
        assert result.omega.vertices == ("e_0", "e_1", "f", "g")
        assert result.omega.edges() == (("e_0", "f"), ("e_1", "g"))
        assert is_isomorphic(result.omega, standard_graph("E(0,2)"))

    def test_substitution_table(self):
        result = build_concealment(three_isolated())
        assert str(result.tau["e"]) == "e_0 e_1 e_0 e_1"
        assert str(result.tau["f"]) == "f"
        assert str(result.tau["g"]) == "g"

    def test_choice_of_split_vertex_prefers_max_degree(self):
        # degrees: p=1 q=1 r=2 s=2 t=0; n-3=2, so e is the least of {r, s}.
        g = Graph(
            "p q r s t".split(),
            [("p", "r"), ("q", "s"), ("r", "s")],
        )
        result = build_concealment(g)
        assert result.e == "r"

    def test_counting_invariants_on_all_eligible_graphs(self):
        for gamma in all_graphs_up_to(5):
            if not eligible(gamma):
                continue
            result = build_concealment(gamma)
            assert len(result.omega) == len(gamma) + 1
            degree_e = gamma.degree(result.e)
            assert result.omega.edge_count == gamma.edge_count + degree_e + 2
            assert result.omega.degree(result.e0) == degree_e + 1
            assert result.omega.degree(result.e1) == degree_e + 1
            assert not result.omega.adjacent(result.e0, result.e1)

    def test_fresh_names_avoid_collisions(self):
        g = Graph(["e", "e_0", "f", "g"])
        result = build_concealment(g)
        assert result.e0 not in g.vertices
        assert result.e1 not in g.vertices
        assert result.e0 != result.e1
        assert (result.e0, result.e1) == ("e_0_", "e_1")


class TestVerification:
    def test_no_embedding_for_three_isolated(self):
        result = build_concealment(three_isolated())
        assert verify_no_embedding(result)

    def test_untouched_part_still_embeds(self):
        result = build_concealment(three_isolated())
        remainder = induced(result.gamma, set(result.gamma.vertices) - {result.e})
        assert find_embedding(remainder, result.omega) is not None

    def test_image_word_lengths_before_reduction(self):
        result = build_concealment(three_isolated())
        word = Word.parse(result.gamma, "e f e' g")
        image = result.apply_tau(word)
        expected = sum(4 if b == result.e else 1 for b, _ in word.letters)
        assert len(image) == expected

    def test_word_over_another_graph_refused(self):
        result = build_concealment(three_isolated())
        with pytest.raises(ValueError, match="different ambient graph"):
            result.apply_tau(Word.parse(Graph(["x"]), "x"))

    def test_tau_respects_inverses(self):
        result = build_concealment(three_isolated())
        word = Word.parse(result.gamma, "e e'")
        assert GroupElement(result.omega, result.apply_tau(word).letters).is_identity

    def test_tau_injective_on_ball_three(self):
        result = build_concealment(three_isolated())
        report = verify_tau_injective(result, 3)
        assert report.passed
        assert report.morphism_failures == ()
        assert report.collisions == ()
        assert report.element_count > 1

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        result = build_concealment(three_isolated())
        with pytest.raises(ValueError):
            verify_tau_injective(result, bound)

    @pytest.mark.parametrize("bound", [2.5, 3.0, True])
    def test_bound_that_is_no_int_rejected(self, bound):
        # 2.5 once walked the radius-3 ball and reported bound=2.5; True
        # passed as 1.
        result = build_concealment(three_isolated())
        with pytest.raises(ValueError, match="max_len must be a positive integer"):
            verify_tau_injective(result, bound)
        assert verify_tau_injective(result, 2).bound == 2

    def test_the_ball_is_complete_by_the_growth_series(self):
        # element_count against Chiswell's growth series, so a ball element
        # dropped or repeated fails even where no collision shows.
        cases = ((all_graphs_up_to(5), 3), (all_graphs_up_to_iso(6), 3), (all_graphs_up_to(4), 4))
        for graphs, max_len in cases:
            for gamma in filter(eligible, graphs):
                report = verify_tau_injective(build_concealment(gamma), max_len)
                assert report.element_count == group_ball_size(gamma, max_len)

    def test_morphism_well_defined_on_all_eligible_graphs(self):
        for gamma in all_graphs_up_to(5):
            if not eligible(gamma):
                continue
            result = build_concealment(gamma)
            report = verify_tau_injective(result, 1)
            assert report.morphism_failures == ()


def hand_built(gamma, images, edges=()):
    """A concealment result over gamma with the given generator images in
    the omega on x, y, z with the given edges (no eligibility or
    construction checks)."""
    omega = Graph(["x", "y", "z"], edges)
    tau = {v: Word.parse(omega, images[v]) for v in gamma.vertices}
    return ConcealmentResult(gamma, omega, "e", "f", "g", "x", "y", tau)


def composite_cases():
    """Hand-built substitutions over three isolated vertices for the
    composite step. The first three send a letter to a word that is no
    normal form over omega (y x with x, y adjacent, and words that cancel),
    so that word is never appended. Over the path x - y - z, z x is appended,
    but y then is not, although y may follow x alone."""
    cases = (
        ({"e": "y x", "f": "x", "g": "y"}, [("x", "y")]),
        ({"e": "x", "f": "y x y'", "g": "x y"}, [("x", "y")]),
        ({"e": "x x'", "f": "y", "g": "x y' y x"}, []),
        ({"e": "z x", "f": "y", "g": "x z'"}, [("x", "y"), ("y", "z")]),
    )
    return [hand_built(three_isolated(), images, edges) for images, edges in cases]


class TestTauFailures:
    def test_collisions_of_a_non_injective_substitution(self):
        result = hand_built(three_isolated(), {"e": "x", "f": "x", "g": "y x"})
        report = verify_tau_injective(result, 2)
        assert not report.passed
        assert report.morphism_failures == ()
        assert report.element_count == 37
        assert [(str(a), str(b)) for a, b in report.collisions] == [
            ("e", "f"), ("e'", "f'"), ("e e", "e f"), ("", "e f'"), ("", "e' f"),
            ("e' e'", "e' f'"), ("e e", "f e"), ("", "f e'"), ("e e", "f f"),
            ("e g", "f g"), ("e g'", "f g'"), ("", "f' e"), ("e' e'", "f' e'"),
            ("e' e'", "f' f'"), ("e' g", "f' g"), ("e' g'", "f' g'"), ("g e", "g f"),
            ("g e'", "g f'"), ("g' e", "g' f"), ("g' e'", "g' f'"),
        ]

    def test_edge_sent_to_non_commuting_images(self):
        gamma = Graph(["e", "f", "g"], [("e", "f")])
        report = verify_tau_injective(hand_built(gamma, {"e": "x", "f": "y", "g": "x y"}), 2)
        assert report.morphism_failures == (("e", "f"),)
        assert not report.passed

    def test_images_from_parents_match_direct_images(self):
        # _tau_images appends tau of the last letter to the parent's image
        # with mask steps, or inserts it; the direct image reduces all of
        # tau(w) at once. Every eligible graph on <= 5 vertices at radius 3,
        # the 95 on 6 vertices at radius 2, and those on <= 4 at radius 4:
        # a stale mask after an insertion first shows at radius 4.
        # The hand-built substitutions add images that are always inserted,
        # and a mask that its last letter alone would overstate.
        cases = ((all_graphs_up_to(5), 3), (all_graphs_up_to_iso(6), 2), (all_graphs_up_to(4), 4))
        results = [
            (build_concealment(gamma), max_len)
            for graphs, max_len in cases
            for gamma in filter(eligible, graphs)
        ]
        results += [(result, 3) for result in composite_cases()]
        for result, max_len in results:
            pairs = list(conceal_module._tau_images(result, max_len))
            ball = canonical_elements(result.gamma, "group", max_len)
            assert [w for w, _ in pairs] == [e.letters for e in ball]
            direct = [result.apply_tau(e.word()).letters for e in ball]
            assert [image for _, image in pairs] == [
                GroupElement(result.omega, image).letters for image in direct
            ]

    def test_composite_steps_match_stepping_letter_by_letter(self):
        # For every eligible graph on <= 6 vertices and the hand-built
        # substitutions, every follow mask an image of its radius-3 ball
        # reaches and every letter l: the composite step appends tau(l)
        # exactly when stepping its letters one at a time over the pairwise
        # table keeps each in the mask, and then gives the same mask.
        results = [build_concealment(gamma) for gamma in filter(eligible, all_graphs_up_to(6))]
        for result in results + composite_cases():
            _, index, keep, up = follow_table_by_pairs(result.omega)

            def stepped(follow, letters):
                for i in map(index.get, letters):
                    if not follow >> i & 1:
                        return None
                    follow = keep[i] | follow & up[i]
                return follow

            reached = {
                stepped((1 << len(index)) - 1, image)
                for _, image in conceal_module._tau_images(result, 3)
            }
            assert None not in reached
            steps = conceal_module._tau_steps(result, *_follow_table(result.omega)[1:])
            assert steps.keys() == {(v, s) for v in result.gamma.vertices for s in (1, -1)}
            for (v, s), (tail, need, kept, passed) in steps.items():
                assert tail == result.apply_tau(Word._of(result.gamma, ((v, s),))).letters
                for follow in reached:
                    composite = kept | follow & passed if follow & need == need else None
                    assert composite == stepped(follow, tail)


class TestPhiWitness:
    def test_three_isolated_family(self):
        result = build_concealment(three_isolated())
        family = monoid_phi_witness(result)
        rendered = [str(m) for m in family.members]
        assert rendered == ["e_0 e_1 e_0 e_1", "f", "g"]
        assert commutation_graph(family).edge_count == 0

    def test_family_size_matches_vertex_count(self):
        for gamma in all_graphs_up_to(4):
            if not eligible(gamma):
                continue
            family = monoid_phi_witness(build_concealment(gamma))
            assert len(family.members) == len(gamma)

    def test_commutation_graph_matches_original(self):
        for gamma in all_graphs_up_to(5):
            if not eligible(gamma):
                continue
            result = build_concealment(gamma)
            cg = commutation_graph(monoid_phi_witness(result))
            names = cg.vertices
            gverts = result.gamma.vertices
            for i in range(len(gverts)):
                for j in range(i + 1, len(gverts)):
                    assert cg.adjacent(names[i], names[j]) == result.gamma.adjacent(
                        gverts[i], gverts[j]
                    )


class TestSerialization:
    def test_graph_then_tau_lines(self):
        result = build_concealment(three_isolated())
        lines = result.serialize().splitlines()
        assert lines[0] == "vertices e_0 e_1 f g"
        assert lines[1] == "edge e_0 f"
        assert lines[2] == "edge e_1 g"
        assert lines[3] == "tau e = e_0 e_1 e_0 e_1"
        assert lines[4] == "tau f = f"
        assert lines[5] == "tau g = g"
