import ast
import re
import types
from pathlib import Path

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
    """(file, top-level definition) of each place in the package that names
    name, as a variable, an attribute or an import; the definition is None
    for a module-level statement such as the import itself."""
    places = set()
    for path in sorted((ROOT / "src" / "graphgroups").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and name in (node.name, node.asname)
                ):
                    places.add((path.name, getattr(top, "name", None)))
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
