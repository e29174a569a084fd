"""Golden outputs: one SHA-256 per family over the codebook and morphology paths.

The inputs are fixed rational rasters, with no random numbers and no
transcendental functions, so the digests depend only on the program.  A
refactor that claims bit-identical outputs must leave every digest as it
is; a change that moves one family's outputs (its residuum, say) moves
that family's digest alone.
"""

import hashlib

import numpy as np
import pytest

from qimg import (FAMILIES, GridImage, MorphConfig, StructuringElement, build_block_codebook,
                  build_triangular_codebook, classify, closing, compress, dilate, erode, opening,
                  preset, quantale, reconstruct)
from qimg.morphology import PADDINGS

GOLDEN = {
    "boolean": "4e686cb8bce6d0f711c6c30e9fcda433ed70a611c5c8c1fe0ef77a886f9de20f",
    "goedel": "e83cd826e4326a417759094f19c85181e6a6a8583369df4352e59405ac3f5ebd",
    "product": "e3833ce2e47c89286c164812e2ccff7f2b06178d206e917f55979a66da593243",
    "lukasiewicz": "f4eec8a60d6a8c9bce6719e047376a90bd27393ac1a44f96980df6bf9742c008",
}

CODEBOOK_SHAPES = ((61, 47, 7, 5), (128, 128, 32, 32))


def _raster(rows: int, cols: int) -> np.ndarray:
    i, j = np.indices((rows, cols))
    return ((i * 37 + j * 101) % 256) / 255


def _cone() -> dict[tuple[int, int], float]:
    """Radius-3 L1 cone, weights k/8: 1 at the origin, 2/8 at distance 3."""
    return {(dy, dx): (8 - 2 * (abs(dy) + abs(dx))) / 8
            for dy in range(-3, 4) for dx in range(-3, 4) if abs(dy) + abs(dx) <= 3}


def _feed(h, label: str, arr: np.ndarray) -> None:
    """Hash label, dtype, shape and bytes of arr; only bytes reach the digest."""
    arr = np.ascontiguousarray(arr)
    h.update(f"{label} {arr.dtype.str} {arr.shape}\n".encode())
    h.update(arr.tobytes())


def _codebook_digest(h, q) -> None:
    for build in (build_triangular_codebook, build_block_codebook):
        for m, n, a, b in CODEBOOK_SHAPES:
            label = f"{build.__name__} {m}x{n}->{a}x{b}"
            cb = build(q, m, n, a, b)
            for field in ("row_idx", "row_w", "col_idx", "col_w"):
                _feed(h, f"{label} {field}", getattr(cb.kernel, field))
            small = compress(cb, GridImage(_raster(m, n)))
            _feed(h, f"{label} compress", small.pixels)
            _feed(h, f"{label} reconstruct", reconstruct(cb, small).pixels)
            c = classify(cb.kernel)
            h.update(f"{label} classify {c.level.value} {c.epsilon} {c.orthogonal}\n".encode())


def _morphology_digest(h, q) -> None:
    pixels = _raster(61, 47)
    cone = _cone()
    if q.family == "boolean":
        pixels = (pixels >= 0.5).astype(float)
        cone = {d: 1.0 for d in cone}
    elements = {"cross3": preset("cross3"), "disk5": preset("disk5"),
                "cone7": StructuringElement(cone)}
    img = GridImage(pixels)
    for name, se in elements.items():
        for padding in PADDINGS:
            cfg = MorphConfig(q=q, padding=padding)
            for op in (dilate, erode, opening, closing):
                _feed(h, f"{op.__name__} {name} {padding}", op(se, img, cfg).pixels)


def family_digest(family: str) -> str:
    q = quantale(family)
    h = hashlib.sha256()
    if family != "boolean":  # the builders take real families only
        _codebook_digest(h, q)
    _morphology_digest(h, q)
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_outputs_match_their_golden_digest(family):
    assert family_digest(family) == GOLDEN[family]
