"""Image compression and reconstruction as transforms over 2-D grids.

A codebook is a kernel from the m x n pixel grid to the a x b code grid.
Compression is the forward transform, reconstruction the inverse one; the
two builders here generate a strong coder (triangular) and an orthonormal
one (block), so the fixed-point and round-trip theorems are exercised by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError, ShapeError, _names_file
from .free_module import IndexSet, _unchecked
from .grid import GridImage
from .quantale import BOOLEAN, Quantale, quantale
from .transform import (KERNEL_MAGIC, Kernel, _lines, _parse_kernel, _scan_file, forward, inverse,
                        write_kernel)

__all__ = [
    "Codebook",
    "build_triangular_codebook",
    "build_block_codebook",
    "compress",
    "reconstruct",
    "mse",
    "psnr",
    "read_codebook",
    "write_codebook",
    "load_kernel",
]

@dataclass(frozen=True, eq=False)
class Codebook:
    """A kernel between shaped grids plus the name of its construction.

    Only the builders label their own codebooks ("triangular", "block");
    every other codebook, read from a file or made by hand, is "custom".
    """

    kernel: Kernel
    builder: str = field(default="custom", init=False)

    def __post_init__(self):
        if self.kernel.domain.shape is None or self.kernel.codomain.shape is None:
            raise ShapeError("codebook kernels need 2-D shapes on both index sets")
        (m, n), (a, b) = self.kernel.domain.shape, self.kernel.codomain.shape
        if a > m or b > n:
            raise ShapeError(f"code grid {a}x{b} larger than image grid {m}x{n}")

    @property
    def image_shape(self) -> tuple[int, int]:
        return self.kernel.domain.shape

    @property
    def code_shape(self) -> tuple[int, int]:
        return self.kernel.codomain.shape


def _check_builder_params(q: Quantale, m: int, n: int, a: int, b: int, minimum: int) -> None:
    if q == BOOLEAN:
        raise DomainError("codebook builders produce fractional entries; pick a real family")
    if not (minimum <= a <= m and minimum <= b <= n):
        raise ValueError(f"need {minimum} <= a <= m and {minimum} <= b <= n, got {(m, n, a, b)}")
    if m * n > np.iinfo(np.intp).max:
        raise ValueError(f"codebook {m}x{n} -> {a}x{b} cannot be built: "
                         f"{m * n} pixels exceed the index range")


def _nodes(length: int, count: int) -> np.ndarray:
    """count node positions spread over 0..length-1, rounded half-up."""
    step = (length - 1) / (count - 1)
    return np.array([math.floor(h * step + 0.5) for h in range(count)], dtype=int)


def _hat_axis(length: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per position, the two bumps that cover it and their heights, each shaped (length, 2).

    Bump h is 1 at node h and falls linearly to 0 at the neighbouring nodes,
    so a position between nodes h and h + 1 lies under those two bumps only;
    h is capped at count - 2, and at a node one of the two heights is 0.
    """
    nodes = _nodes(length, count)
    i = np.arange(length)
    h = np.minimum(np.searchsorted(nodes, i, side="right") - 1, count - 2)
    left, right = nodes[h], nodes[h + 1]
    heights = np.stack([(right - i) / (right - left), (i - left) / (right - left)], axis=1)
    return h[:, None] + np.arange(2), heights


def _block_axis(length: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per position, its block of count near-equal ones and its weight, each shaped (length, 1).

    At distance d from the block centre over the block's reach, the weight
    0.2 + 0.8 * (1 - d) is exactly 1.0 at d = 0 and 0.2 at d = 1, and as a
    float it never increases with d.
    """
    edges = np.array([length * h // count for h in range(count + 1)])
    lo, hi = edges[:-1], edges[1:]
    centre = (lo + hi - 1) // 2
    reach = np.maximum(centre - lo, hi - 1 - centre)
    block = np.repeat(np.arange(count), hi - lo)
    d = np.abs(np.arange(length) - centre[block]) / np.maximum(reach[block], 1)
    return block[:, None], (0.2 + 0.8 * (1.0 - d))[:, None]


def _separable(q: Quantale, m: int, n: int, a: int, b: int, rows, cols, combine) -> Kernel:
    """The kernel with entry ((i,j),(h,k)) = combine(row weight, column weight), zeros dropped.

    rows (cols) holds, per image row (column), its code rows (columns) and their
    weights; entries are grouped by pixel, then row slot, then column slot.
    """
    (hs, hw), (ks, kw) = rows, cols
    w = combine(hw[:, None, :, None], kw[None, :, None, :])  # (m, n, s, t)
    nz = w != 0.0
    x = np.broadcast_to(np.arange(m * n).reshape(m, n, 1, 1), w.shape)[nz]
    y = (hs[:, None, :, None] * b + ks[None, :, None, :])[nz]
    return Kernel(q, IndexSet(m * n, (m, n)), IndexSet(a * b, (a, b)), entries=(x, y, w[nz]))


def build_triangular_codebook(q: Quantale, m: int, n: int, a: int, b: int) -> Codebook:
    """Separable hat-function codebook; classifies strong by construction.

    Entry ((i,j),(h,k)) is the real product A_h(i) * B_k(j) of triangular
    bumps centred on an a x b lattice of node pixels; each code cell is 1
    exactly at its node and 0 at every other node, which makes the node map
    the witnessing injection.  Only the products of the bumps that cover a
    pixel, at most 2 x 2, are formed.
    """
    _check_builder_params(q, m, n, a, b, minimum=2)
    kernel = _separable(q, m, n, a, b, _hat_axis(m, a), _hat_axis(n, b), np.multiply)
    return _unchecked(Codebook, kernel, "triangular")


def build_block_codebook(q: Quantale, m: int, n: int, a: int, b: int) -> Codebook:
    """Disjoint rectangular blocks; classifies orthonormal by construction.

    The grid splits into a x b blocks of near-equal size.  Inside block
    (h,k) the weight, the min of two axis weights, is 1 at the block centre
    and decays linearly to a floor of 0.2 at the block boundary; outside it
    is 0, so distinct code cells never overlap and each pixel has one entry.
    """
    _check_builder_params(q, m, n, a, b, minimum=1)
    kernel = _separable(q, m, n, a, b, _block_axis(m, a), _block_axis(n, b), np.minimum)
    return _unchecked(Codebook, kernel, "block")


def compress(cb: Codebook, img: GridImage) -> GridImage:
    """Forward transform of the image through the codebook kernel."""
    if img.shape != cb.image_shape:
        raise ShapeError(f"image {img.shape} does not match codebook domain {cb.image_shape}")
    out = forward(cb.kernel, img.element())
    return GridImage.from_element(out)


def reconstruct(cb: Codebook, comp: GridImage) -> GridImage:
    """Inverse transform of a compressed image back to the full grid."""
    if comp.shape != cb.code_shape:
        raise ShapeError(f"image {comp.shape} does not match codebook codomain {cb.code_shape}")
    out = inverse(cb.kernel, comp.element())
    return GridImage.from_element(out)


def mse(a: GridImage, b: GridImage) -> float:
    """Mean squared pixel difference on the [0,1] scale."""
    if a.shape != b.shape:
        raise ShapeError(f"images shaped {a.shape} and {b.shape}")
    diff = a.pixels - b.pixels
    return float(np.mean(diff * diff))


def psnr(a: GridImage, b: GridImage) -> float:
    """Peak signal-to-noise ratio in dB; infinite for identical images."""
    err = mse(a, b)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / err)


# --- codebook files ------------------------------------------------------------
#
# A builder's parameters fix every entry of its kernel, so a builder-made
# codebook is stored as them alone and the kernel is rebuilt on reading:
#
#   QCODEBOOK 1
#   <family> <builder> <m> <n> <a> <b>
#
# A "custom" codebook is a QKERNEL 1 file whose "# builder custom m n a b"
# comment gives the grid shapes.  Older files of the builders, whose comment
# names the builder instead, read as custom too: no builder made their body.

CODEBOOK_MAGIC = "QCODEBOOK 1"
BUILDERS = ("triangular", "block")


def _build(name: str, q: Quantale, m: int, n: int, a: int, b: int) -> Codebook:
    """Run the builder called name; grids too large to allocate are a ValueError."""
    # built per call, so a rebound module attribute (a tracing wrapper) is the one called
    builder = {"triangular": build_triangular_codebook, "block": build_block_codebook}[name]
    try:
        return builder(q, m, n, a, b)
    except MemoryError as exc:
        raise ValueError(f"codebook {m}x{n} -> {a}x{b} cannot be built: {exc}") from None


def write_codebook(path, cb: Codebook) -> None:
    """Write cb as its builder's parameters, or as a dense QKERNEL 1 file if custom."""
    m, n = cb.image_shape
    a, b = cb.code_shape
    if cb.builder == "custom":
        write_kernel(path, cb.kernel, comments=[f"builder custom {m} {n} {a} {b}"])
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{CODEBOOK_MAGIC}\n{cb.kernel.q.family} {cb.builder} {m} {n} {a} {b}\n")


def _params(fields: list[str], names: tuple[str, ...]) -> tuple[str, int, int, int, int]:
    """The builder name, one of names, and grid sizes of the fields '<builder> <m> <n> <a> <b>'."""
    if fields[0] not in names:
        raise ParseError(f"unknown builder {fields[0]!r}; expected one of {names}")
    try:
        m, n, a, b = (int(tok) for tok in fields[1:])
    except ValueError:
        raise ParseError(f"malformed builder parameters {fields[1:]}") from None
    return fields[0], m, n, a, b


def _rebuild(lines: list[str]) -> Codebook:
    """The codebook of a QCODEBOOK 1 file's data lines, rebuilt from its parameters."""
    if len(lines) != 1:
        raise ParseError(f"expected one parameter line, found {len(lines)} data lines")
    parts = lines[0].split()
    if len(parts) != 6:
        raise ParseError(f"expected '<family> <builder> <m> <n> <a> <b>', got {lines[0]!r}")
    name, m, n, a, b = _params(parts[1:], BUILDERS)
    return _build(name, quantale(parts[0]), m, n, a, b)


def _grids(comments: list[str]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The image and code grid shapes that a custom codebook's builder comment gives."""
    for c in comments:
        parts = c.split()
        if len(parts) == 6 and parts[0] == "builder":
            break
    else:
        raise ParseError("no '# builder <name> <m> <n> <a> <b>' comment line")
    _, m, n, a, b = _params(parts[1:], BUILDERS + ("custom",))
    return (m, n), (a, b)


@_names_file
def read_codebook(path) -> Codebook:
    """Read a QCODEBOOK 1 file, or a QKERNEL 1 file with a builder comment."""
    data = Path(path).read_bytes()
    scanned = _scan_file(data, _grids)
    if scanned is not None:
        return Codebook(scanned[0])
    magic, lines, comments = _lines(data, CODEBOOK_MAGIC, KERNEL_MAGIC)
    if magic == CODEBOOK_MAGIC:
        return _rebuild(lines)
    return Codebook(_parse_kernel(lines, _grids(comments)))


@_names_file
def load_kernel(path) -> Kernel:
    """The kernel of a QKERNEL 1 file or of a QCODEBOOK 1 codebook file."""
    data = Path(path).read_bytes()
    scanned = _scan_file(data)
    if scanned is not None:
        return scanned[0]
    magic, lines, _ = _lines(data, CODEBOOK_MAGIC, KERNEL_MAGIC)
    return _rebuild(lines).kernel if magic == CODEBOOK_MAGIC else _parse_kernel(lines)
