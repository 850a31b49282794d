import importlib
import pkgutil

import holderforms


def test_every_exported_name_resolves():
    stale = []
    for info in pkgutil.iter_modules(holderforms.__path__):
        mod = importlib.import_module(f"holderforms.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                  if not hasattr(mod, name)]
    assert not stale
