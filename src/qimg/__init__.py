"""Join-product image operators over unit-interval quantales.

Fuzzy compression/reconstruction and translation-invariant mathematical
morphology, both as transforms between free modules over a common algebra
of left-continuous t-norms and their residua.
"""

# each public name is declared once, in its module's __all__
from .compression import *
from .errors import *
from .free_module import *
from .grid import *
from .morphology import *
from .pgm import *
from .quantale import *
from .transform import *

__version__ = "0.1.0"
