import ast
import re
import types
from pathlib import Path

import pytest

from graphgroups import (
    Graph,
    GroupElement,
    Word,
    build_concealment,
    canonical_elements,
    primitive_root,
    project_sigma,
    raag,
    standard_graph,
    trace,
    trace_normal_form,
    verify_tau_injective,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_star_import_binds_no_module_and_the_readme_example_names():
    namespace = {}
    exec("from graphgroups import *", namespace)
    public = {name: value for name, value in namespace.items() if not name.startswith("__")}
    assert not [name for name, value in public.items() if isinstance(value, types.ModuleType)]
    example = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    imported = re.search(r"from graphgroups import \(([^)]*)\)", example).group(1)
    names = {name.strip() for name in imported.split(",")} - {""}
    assert names and names <= public.keys()


def _places(name):
    """(file, definition) of each place in the package that names name, as a
    variable, an attribute or an import; the definition is a top-level one,
    or ``Class.method`` inside a class, and None for a module-level
    statement such as the import itself."""
    places = set()
    for path in sorted((ROOT / "src" / "graphgroups").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            inner = top.body if isinstance(top, ast.ClassDef) else [top]
            for item in inner:
                where = getattr(top, "name", None)
                if item is not top and hasattr(item, "name"):
                    where = f"{where}.{item.name}"
                for node in ast.walk(item):
                    if (
                        isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.alias) and name in (node.name, node.asname)
                    ):
                        places.add((path.name, where))
    return places


def test_only_the_root_finder_names_the_prefix_generator():
    # One root finder: trace._root is the one place that runs the candidate
    # roots, so no module imports or calls iter_trace_prefixes itself.
    assert _places("iter_trace_prefixes") == {("trace.py", "_root")}


def test_only_the_structure_build_finds_pure_factor_blocks_and_roots():
    # One Servatius structure per element: within raag, the co-components of
    # the support and their roots are taken only by _centralizer_structure,
    # which pure_factors and centralizer_witness both read.
    for name in ("_root", "co_components"):
        in_raag = {place for place in _places(name) if place[0] == "raag.py"}
        assert in_raag == {("raag.py", None), ("raag.py", "_centralizer_structure")}


def test_only_the_table_builds_the_pool_and_only_the_bounded_search_runs_the_kernel():
    # One seam in commgraph: the pool and its masks are built by _table
    # alone, and the forward-checking kernel is run by _bounded_search alone,
    # so later changes extend these two rather than add a second path.
    for name in ("canonical_elements", "_commute_masks"):
        in_commgraph = {place for place in _places(name) if place[0] == "commgraph.py"}
        assert in_commgraph == {("commgraph.py", "_table")}
    in_commgraph = {place for place in _places("_forward_check") if place[0] == "commgraph.py"}
    assert in_commgraph == {("commgraph.py", None), ("commgraph.py", "_bounded_search")}


def test_the_forward_checking_kernel_is_one_loop():
    # No nested function, no call to itself and no try: the search depth
    # rests on the kernel's own stack, so no recursion limit can refuse it.
    tree = ast.parse((ROOT / "src" / "graphgroups" / "graphs.py").read_text(encoding="utf-8"))
    (kernel,) = [f for f in tree.body if getattr(f, "name", None) == "_forward_check"]
    inner = list(ast.walk(kernel))[1:]
    assert not [n for n in inner if isinstance(n, (ast.FunctionDef, ast.Lambda, ast.Try))]
    assert not [n for n in inner if isinstance(n, ast.Name) and n.id == kernel.name]


def test_only_trace_projects_words():
    # One projection: the mask build grows its patterns along the pool's
    # prefix tree, so _coordinates serves trace alone.
    assert {file for file, _ in _places("_coordinates")} == {"trace.py"}


def test_only_the_mask_build_keys_projections():
    # One caller and one memo: _commute_masks keys each projection pattern
    # once per call, so no other code computes keys past that memo.
    assert _places("_projection_key") == {("commgraph.py", "_commute_masks")}


def test_only_the_two_constructors_check_letters():
    # Letters from outside are checked once, where they come in; every word
    # or element the program rebuilds from letters it holds is unchecked.
    assert _places("check_letters") == {
        ("trace.py", "Word.__init__"),
        ("raag.py", None),
        ("raag.py", "GroupElement.__init__"),
    }


def _raise(*args):
    raise AssertionError("not to be called here")


def test_valid_letters_pass_the_bulk_test_without_a_per_letter_pass(monkeypatch):
    # The per-letter pass coerces through _str_letter; a valid word must not
    # reach it, however long.
    graph = standard_graph("cycle(8)")
    letters = [(graph.vertices[i * 5 % 8], (-1) ** (i // 3)) for i in range(512)]
    monkeypatch.setattr(trace, "_str_letter", _raise)
    assert len(Word(graph, letters)) == 512
    assert GroupElement(graph, letters).length <= 512
    assert Word(graph, tuple(letters)).letters == tuple(letters)


def test_rebuilds_from_held_letters_check_nothing_again(monkeypatch):
    graph = Graph("a b c d".split(), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    u = Word(graph, [("a", 1), ("c", 1), ("a", 1), ("c", 1)])
    v = Word(graph, [("b", 1), ("a", -1)])
    ba = Word(graph, [("b", 1), ("a", 1)])
    element = GroupElement(graph, v.letters)
    eligible = Graph("a b c d".split(), [("a", "b")])
    result = build_concealment(eligible)
    signed = Word(eligible, [("a", 1), ("c", -1)])
    for module in (trace, raag):
        monkeypatch.setattr(module, "check_letters", _raise)
    assert str(u * v) == "a c a c b a'"
    assert str(u**2) == "a c a c a c a c" and str(v**-1) == "a b'"
    assert str(v.inverse()) == "a b'"
    assert str(trace_normal_form(ba)) == "a b"
    root, k = primitive_root(u)
    assert (str(root), k) == ("a c", 2)
    assert str(project_sigma(u, "a", "c")) == "a c a c"
    assert element.word().letters == element.letters and str(element) == "a' b"
    assert len(canonical_elements(graph, "monoid", 2)) == 17
    assert str(result.apply_tau(signed)) == "a_0 a_1 a_0 a_1 c'"
    tau = build_concealment(eligible).tau
    assert [str(tau[v]) for v in "abcd"] == ["a_0 a_1 a_0 a_1", "b", "c", "d"]
    assert verify_tau_injective(result, 2).passed
    assert str(Word.parse(graph, "a b' c")) == "a b' c"
    with pytest.raises(AssertionError):  # the constructors still check
        Word(graph, [])
