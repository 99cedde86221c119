"""Exact invariants of virtual link diagrams and signed ribbon graphs.

Kauffman bracket and Jones polynomial from abstract oriented 4-valent
codes; signed ribbon graphs with subgraph statistics, the signed
Bollobas-Riordan polynomial, and the Tutte polynomial; and exact
verification that the bracket equals the transformed Bollobas-Riordan
polynomial of the Seifert-circle graph. All arithmetic is exact.
"""

from . import diagram, polyring, ribbon, thistle
from .polyring import *
from .diagram import *
from .ribbon import *
from .thistle import *

__version__ = "0.1.0"

__all__ = polyring.__all__ + diagram.__all__ + ribbon.__all__ + thistle.__all__
