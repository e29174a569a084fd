"""2-D unit-interval rasters and their free-module view."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .free_module import IndexSet, ModuleElement, _fill, _unchecked
from .quantale import unit_carrier

__all__ = ["GridImage"]


@dataclass(frozen=True, eq=False)
class GridImage:
    """An m x n grey-scale raster with values in [0,1].

    Row-major flattening identifies the raster with a module element over
    the index set of size m*n tagged with shape (m, n).
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError("an image needs a non-empty 2-D pixel array")
        _fill(self, unit_carrier(arr, "pixel values"))

    @property
    def rows(self) -> int:
        return self.pixels.shape[0]

    @property
    def cols(self) -> int:
        return self.pixels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape

    @property
    def index(self) -> IndexSet:
        return IndexSet(self.rows * self.cols, self.shape)

    def element(self) -> ModuleElement:
        """The module-element view; shares the read-only pixel buffer."""
        return _unchecked(ModuleElement, self.index, self.pixels.ravel())

    @classmethod
    def from_element(cls, elem: ModuleElement) -> "GridImage":
        """The raster view of a shaped element; shares its read-only buffer."""
        if elem.index.shape is None:
            raise ShapeError("module element carries no 2-D shape")
        return _unchecked(cls, elem.values.reshape(elem.index.shape))

    def __le__(self, other: "GridImage") -> bool:
        if self.shape != other.shape:
            raise ShapeError(f"images shaped {self.shape} and {other.shape}")
        return bool(np.all(self.pixels <= other.pixels))

    def __repr__(self) -> str:
        return f"GridImage({self.rows}x{self.cols})"
