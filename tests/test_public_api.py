import importlib
import inspect
import pkgutil

import pytest

import excised_ensemble

MODULES = [
    importlib.import_module(f"excised_ensemble.{info.name}")
    for info in pkgutil.iter_modules(excised_ensemble.__path__)
]
WITH_ALL = [m for m in MODULES if hasattr(m, "__all__")]


def _public_definitions(module) -> set:
    """Public top-level functions and classes defined in `module` itself."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


def test_modules_declare_their_surface():
    assert {m.__name__.rsplit(".", 1)[1] for m in WITH_ALL} >= {
        "analytic", "curve_model", "ensemble", "haar", "special_functions",
    }


@pytest.mark.parametrize("module", WITH_ALL, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_definitions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(module.__all__) == len(set(module.__all__))
    callables = {
        name for name in module.__all__
        if inspect.isfunction(getattr(module, name)) or inspect.isclass(getattr(module, name))
    }
    assert _public_definitions(module) == callables
