import re
import types
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_no_module_and_the_readme_example_names():
    namespace = {}
    exec("from graphgroups import *", namespace)
    public = {name: value for name, value in namespace.items() if not name.startswith("__")}
    assert not [name for name, value in public.items() if isinstance(value, types.ModuleType)]
    example = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    imported = re.search(r"from graphgroups import \(([^)]*)\)", example).group(1)
    names = {name.strip() for name in imported.split(",")} - {""}
    assert names and names <= public.keys()
