"""Every public name a module exports resolves, so a stale __all__ entry fails here, not at a user's import."""

import importlib
import pkgutil


def test_every_exported_name_resolves():
    package = importlib.import_module("intmapf")
    modules = [info.name for info in pkgutil.iter_modules(package.__path__, "intmapf.")]
    assert "intmapf.sipp" in modules and "intmapf.cbs" in modules
    for name in modules:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"
