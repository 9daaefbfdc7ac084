"""numpy, bound lazily: its module body runs at the first attribute access.

The exact layer (``nullsl2 endmodel``, ``nullsl2 classify``) never calls
numpy, so those commands do not pay for importing it.  Modules write
``from ._lazy import np``; a numpy that is already imported is used as is.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")
