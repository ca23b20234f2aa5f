"""numpy, imported on first attribute access.

The layers write ``from . import _numpy as np`` and use ``np.x`` as usual.
The first access imports numpy and copies the requested name into this
module's globals, so later accesses are ordinary module-attribute lookups.
The layers themselves execute on first use (see ``qqwalk/__init__``), and
numpy loads only when one of them first touches an array.  Coin
classification, the closed forms, the eigensystem of U(theta) and the
limit density run on Python floats alone and never load numpy, which keeps
``import qqwalk`` and the ``classify``, ``exact``, closed-form ``xi``,
``spectrum``, ``limit``, ``compare`` and closed-family ``simulate`` jobs
free of its import time.
"""


def __getattr__(name: str):
    if name.startswith("__") and name.endswith("__"):
        # __all__, __path__, __file__, ...: this module's own, not numpy's
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy

    value = getattr(numpy, name)
    globals()[name] = value
    return value
