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


def test_only_the_root_finder_names_the_prefix_generator():
    # One root finder: trace._root is the one place that runs the candidate
    # roots, so no module imports or calls iter_trace_prefixes itself.
    name = "iter_trace_prefixes"
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
    assert places == {("trace.py", "_root")}
