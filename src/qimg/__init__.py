"""Join-product image operators over unit-interval quantales.

Fuzzy compression/reconstruction and translation-invariant mathematical
morphology, both as transforms between free modules over a common algebra
of left-continuous t-norms and their residua.
"""

from .compression import (
    Codebook,
    build_block_codebook,
    build_triangular_codebook,
    compress,
    load_kernel,
    mse,
    psnr,
    read_codebook,
    reconstruct,
    write_codebook,
)
from .errors import DomainError, ParseError, ShapeError
from .free_module import (
    IndexSet,
    ModuleElement,
    bottom,
    constant,
    delta,
    join_elems,
    scalar_mul,
    scalar_residuum,
)
from .grid import GridImage
from .morphology import (
    MorphConfig,
    StructuringElement,
    closing,
    dilate,
    erode,
    opening,
    preset,
    read_sel,
    reflect,
    toeplitz_kernel,
    write_sel,
)
from .pgm import read_pgm, write_pgm
from .quantale import BOOLEAN, FAMILIES, GOEDEL, LUKASIEWICZ, PRODUCT, Quantale, quantale
from .transform import (
    Kernel,
    KernelClass,
    KernelLevel,
    classify,
    compose,
    forward,
    identity_kernel,
    inverse,
    is_orthogonal,
    kernel_of,
    read_kernel,
    write_kernel,
)

__version__ = "0.1.0"
