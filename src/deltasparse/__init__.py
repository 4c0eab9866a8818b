"""deltasparse: sparse (min,+) graph kernels with a bucketed shortest-path
solver on top, in unfused and fused flavors.

The public API is each module's own `__all__`, republished here."""

from . import core, fused, generate, io, ops, sssp
from .core import *  # noqa: F403
from .fused import *  # noqa: F403
from .generate import *  # noqa: F403
from .io import *  # noqa: F403
from .ops import *  # noqa: F403
from .sssp import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *fused.__all__,
    *generate.__all__,
    *io.__all__,
    *ops.__all__,
    *sssp.__all__,
    "__version__",
]
