"""The package's public surface."""

import ast
import types
from pathlib import Path

import weakdep


def test_star_import_binds_the_public_names_and_no_module():
    namespace = {}
    exec("from weakdep import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(weakdep.__all__)
    assert not [name for name in bound if isinstance(namespace[name], types.ModuleType)]
    assert {"run", "wald_ci", "ExperimentPlan", "generate_sequence"} <= bound
    # every public name left out is a submodule
    public = {name for name in dir(weakdep) if not name.startswith("_")}
    assert all(isinstance(getattr(weakdep, name), types.ModuleType)
               for name in public - bound)


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package or of the tests imports is read
    somewhere in it.  The package's ``__init__`` is left out: its imports
    are the public names it re-exports."""
    unused = []
    modules = [path for path in Path(weakdep.__file__).parent.glob("*.py")
               if path.name != "__init__.py"]
    for path in sorted(modules) + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
