"""The package's public surface."""

import types

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
