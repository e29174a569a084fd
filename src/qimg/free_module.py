"""The free module Q^X over a finite index set.

Elements are [0,1]-valued families indexed by 0..n-1; an optional (rows,
cols) shape tags index sets that came from a 2-D raster.  Joins and the
scalar action (with its residuum) are pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .quantale import Quantale, require_unit

__all__ = [
    "IndexSet",
    "ModuleElement",
    "bottom",
    "constant",
    "delta",
    "join_elems",
    "scalar_mul",
    "scalar_residuum",
]


@dataclass(frozen=True)
class IndexSet:
    """A finite set {0, .., size-1}, optionally laid out as a 2-D grid."""

    size: int
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("index set must be non-empty")
        if self.shape is not None:
            rows, cols = self.shape
            if rows < 1 or cols < 1 or rows * cols != self.size:
                raise ShapeError(f"shape {self.shape} does not cover size {self.size}")


def _unchecked(cls, *values):
    """Build cls from known-valid field values, skipping __post_init__; arrays go read-only."""
    obj = object.__new__(cls)
    for field, value in zip(fields(cls), values):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, field.name, value)
    return obj


@dataclass(frozen=True, eq=False)
class ModuleElement:
    """A point of Q^X: one value per index, all in [0,1]."""

    index: IndexSet
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float).reshape(-1)
        if arr.shape[0] != self.index.size:
            raise ShapeError(f"expected {self.index.size} values, got {arr.shape[0]}")
        require_unit(arr, "module element values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __le__(self, other: "ModuleElement") -> bool:
        _require_same_index(self, other)
        return bool(np.all(self.values <= other.values))

    def __repr__(self) -> str:
        return f"ModuleElement({self.index}, {np.array2string(self.values, precision=4)})"


def _require_same_index(f: ModuleElement, g: ModuleElement) -> None:
    if f.index != g.index:
        raise ShapeError(f"elements indexed by {f.index} and {g.index} are not composable")


def bottom(index: IndexSet) -> ModuleElement:
    """The bottom of Q^X: the all-zero family."""
    return ModuleElement(index, np.zeros(index.size))


def constant(index: IndexSet, value: float) -> ModuleElement:
    return ModuleElement(index, np.full(index.size, float(value)))


def delta(index: IndexSet, x0: int) -> ModuleElement:
    """Basis element: 1 at x0, 0 elsewhere."""
    if not 0 <= x0 < index.size:
        raise IndexError(f"index {x0} outside 0..{index.size - 1}")
    values = np.zeros(index.size)
    values[x0] = 1.0
    return ModuleElement(index, values)


def join_elems(fs: Sequence[ModuleElement]) -> ModuleElement:
    """Pointwise join of a non-empty family over one index set."""
    if not fs:
        raise ValueError("join_elems needs at least one element")
    first = fs[0]
    for g in fs[1:]:
        _require_same_index(first, g)
    stacked = np.stack([f.values for f in fs])
    return _unchecked(ModuleElement, first.index, stacked.max(axis=0))


def scalar_mul(q: Quantale, a: float, f: ModuleElement) -> ModuleElement:
    """The scalar action (a * f)(x) = mul(a, f(x))."""
    q.check(a)
    return _unchecked(ModuleElement, f.index, q._mul(np.asarray(a, float), f.values))


def scalar_residuum(q: Quantale, a: float, f: ModuleElement) -> ModuleElement:
    """Residuum of the scalar action: the largest g with a * g <= f."""
    q.check(a)
    return _unchecked(ModuleElement, f.index, q._residuum(np.asarray(a, float), f.values))
