"""Every name a ``repro`` module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import repro


def test_every_module_export_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    assert "repro.hier" in {module.__name__ for module in modules}
    stale = [
        "%s.%s" % (module.__name__, name)
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []
