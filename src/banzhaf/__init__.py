"""Banzhaf power indices for weighted voting games, classical and
association-aware, exact and Monte Carlo.

The package exports every name in the ``__all__`` of its modules `games`,
`exact`, `sampling`, `bounds` and `data`, in that order; each module's
``__all__`` is the one list of its public names."""

from . import games, exact, sampling, bounds, data
from .games import *
from .exact import *
from .sampling import *
from .bounds import *
from .data import *

__version__ = "0.1.0"

__all__ = [*games.__all__, *exact.__all__, *sampling.__all__, *bounds.__all__, *data.__all__]
