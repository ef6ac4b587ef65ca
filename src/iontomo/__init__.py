"""Trapped-ion phase-space simulation and symplectic tomography toolkit.

Builds squeezed/correlated Gaussian and even/odd cat states of an ion in a
parametrically driven trap, computes their symplectic tomograms and Wigner
functions, transports both in time along the classical mode function, checks
the tomogram evolution equation numerically, and reconstructs Wigner
functions from tomographic data by Fourier inversion and filtered
backprojection.

The public names are the ``__all__`` lists of the submodules named below,
each imported on first access (PEP 562), so ``import iontomo`` loads no
numpy: the CLI sets its thread environment before numpy starts.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

#: The submodules whose ``__all__`` lists make up the package's public names, in order.
_PUBLIC_MODULES = ("errors", "oscillator", "states", "tomography", "verify")


def _public_modules():
    return (importlib.import_module(f".{name}", __name__) for name in _PUBLIC_MODULES)


def __getattr__(name):
    if name == "__all__":
        value = [n for module in _public_modules() for n in module.__all__]
    elif name.startswith("_"):
        # a miss that imports nothing: ``from . import _svg`` then loads that submodule alone
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    elif importlib.util.find_spec(f"{__name__}.{name}") is not None:
        # a submodule such as ``cli``, imported before any other so it can set up numpy
        value = importlib.import_module(f".{name}", __name__)
    else:
        owner = next((m for m in _public_modules() if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
