"""diffeo-kit: exact computations with finitely presented diffeological spaces.

Tangent fibres and their wedge powers are colimits of chart diagrams over
the rationals; differential forms are compatible families of chart-level
polynomial forms.  Everything is exact: dimensions, verdicts and pointwise
values carry zero tolerance.

The package exports the names in the ``__all__`` of each library module
below, and no others; ``diffeokit.cli`` is the command-line front end and
stays out.
"""

from .linalg import *
from .multilinear import *
from .symcalc import *
from .presentation import *
from .tangent import *
from .forms import *
from .catalog import *
from .textio import *

__version__ = "0.1.0"
