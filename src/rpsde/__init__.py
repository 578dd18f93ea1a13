"""Random periodic solutions of dissipative semi-linear SDEs via stochastic
theta methods: deterministic two-sided noise, implicit integration, pull-back
construction, and strong-error analysis.

The package's top level loads one thing, scipy's inverse normal CDF `ndtri`,
which `rpsde.noise` uses; import the modules themselves (`rpsde.models`,
`rpsde.noise`, `rpsde.integrator`, `rpsde.periodic`, `rpsde.analysis`,
`rpsde.cli`).
"""

import importlib.util
import os
import sys
import types

__version__ = "0.1.0"


def _load_ndtri():
    """scipy's `ndtri` ufunc, loaded without running `scipy.special`'s `__init__`.

    A loaded `scipy.special` gives its own `ndtri`. Otherwise bare modules
    named `scipy` (unless it is loaded) and `scipy.special`, whose `__path__`
    are the real package directories, stand in for the packages while the
    extension `scipy.special._ufuncs` is imported, and are removed after. A
    later `import scipy.special` runs the real `__init__`s, which find
    `_ufuncs` loaded, so its `ndtri` is this very object; the private
    extensions that `_ufuncs` loads are then in `sys.modules` but are not
    attributes of the package. Should the extension need more of the
    packages than their directories, the public import is used.

    It runs at the package's first import, before numpy's: the extension
    links scipy's OpenBLAS, whose worker threads spin for about 0.1 s once
    loaded, and that spin then overlaps numpy's import, which the extension
    makes, rather than the run that follows start-up.
    """
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.ndtri
    # found without importing the package; with no scipy, the public import says so
    roots = getattr(importlib.util.find_spec("scipy"), "submodule_search_locations", [])
    stand_ins = [name for name in ("scipy", "scipy.special") if name not in sys.modules]
    for name in stand_ins:
        stub = types.ModuleType(name)
        stub.__path__ = [os.path.join(root, *name.split(".")[1:]) for root in roots]
        sys.modules[name] = stub
    try:
        from scipy.special._ufuncs import ndtri
    except ImportError:
        ndtri = None
    finally:
        for name in stand_ins:
            del sys.modules[name]
    if ndtri is None:
        from scipy.special import ndtri
    return ndtri


ndtri = _load_ndtri()
