"""Every module's ``__all__`` names what the module defines, once, and the
package root re-exports only names its modules list."""

import importlib

import pytest

import anisolab

MODULES = ["assembly", "cli", "coefficients", "config", "diagnostics",
           "elliptic", "expressions", "linsolve", "reports", "semigroup",
           "spaces", "stencil"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(f"anisolab.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert missing == []


def test_package_root_reexports_listed_names():
    listed = set()
    for name in MODULES:
        listed.update(importlib.import_module(f"anisolab.{name}").__all__)
    public = {item for item, value in vars(anisolab).items()
              if not item.startswith("_")
              and getattr(value, "__module__", "").startswith("anisolab.")}
    assert sorted(public - listed) == []
