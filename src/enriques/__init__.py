"""Enriques diagrams of plane curve singularities.

Weighted proximity trees, Milnor numbers, canonical forms and bounded
enumeration; quasihomogeneous germs and their resolution diagrams; the
domination relation with checkable witnesses and bounded linear adjacency;
the Milnor-number jump under linear deformations with its adjacent-diagram
construction and bounded maximality verification.
"""

from . import adjacency, diagram, enumeration, jump, quasihomogeneous, serialize
from .diagram import *
from .enumeration import *
from .quasihomogeneous import *
from .adjacency import *
from .jump import *
from .serialize import *

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
__all__ = [
    *diagram.__all__,
    *enumeration.__all__,
    *quasihomogeneous.__all__,
    *adjacency.__all__,
    *jump.__all__,
    *serialize.__all__,
    "__version__",
]
