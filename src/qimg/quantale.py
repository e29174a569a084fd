"""Commutative quantales on the unit interval.

Each family packages a left-continuous t-norm together with its residuum,
forming the structure <[0,1], max, *, 0, 1>.  Three real families are
provided (goedel, product, lukasiewicz) plus the Boolean quantale on the
two-element carrier {0, 1}.  All operations broadcast elementwise over
numpy arrays, so the same code path serves scalars, module elements and
whole kernels.

The public ``mul`` and ``residuum`` check their operands and flush subnormal
ones to 0; package code on already-validated kernels, elements and images
calls ``_mul``/``_residuum``.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "Quantale",
    "GOEDEL",
    "PRODUCT",
    "LUKASIEWICZ",
    "BOOLEAN",
    "FAMILIES",
    "quantale",
]

Values = Union[float, np.ndarray]

BOTTOM = 0.0
UNIT = 1.0  # the monoid unit e; also the top of the lattice
TINY = np.finfo(float).tiny  # the smallest normal float


def require_unit(arr: np.ndarray, what: str) -> float:
    """Raise DomainError unless every entry lies in [0,1]; min/max propagate NaN, so it fails.

    Returns the smallest entry, or UNIT for an empty array.
    """
    low = arr.min(initial=UNIT)
    if not (low >= BOTTOM and arr.max(initial=BOTTOM) <= UNIT):
        raise DomainError(f"{what} must lie in [0,1]")
    return low


def unit_carrier(arr: np.ndarray, what: str) -> np.ndarray:
    """Check a freshly made float array against [0,1] and flush it to {0} u [TINY, 1], in place.

    The float product underflows on a subnormal operand (0.5 * 5e-324 is
    0), which would break the adjunction between mul and residuum.  Exact
    zeros (all bits clear) need no flush, so a binary raster skips it.
    """
    if require_unit(arr, what) < TINY:  # only then can an entry need the flush
        low = arr < TINY
        if np.count_nonzero(low) != np.count_nonzero(arr.view(np.uint64) == 0):  # a subnormal or -0.0
            np.putmask(arr, low, BOTTOM)
    return arr


def _result(a):
    # collapse 0-d arrays back to plain scalars
    if isinstance(a, np.ndarray) and a.ndim == 0:
        return float(a)
    return a


class Quantale:
    """One fixed family of t-norm and residuum; stateless and hashable."""

    family: str = ""

    def check(self, x: Values) -> None:
        """Reject values outside the carrier."""
        arr = np.asarray(x, dtype=float)
        require_carrier(self, arr)
        require_unit(arr, f"values of the {self.family} quantale")

    def _operand(self, x: Values) -> np.ndarray:
        """x as a checked float array with subnormals flushed to 0."""
        arr = np.array(x, dtype=float)
        require_carrier(self, arr)  # first: under BOOLEAN a subnormal is a grey value, not a 0
        return unit_carrier(arr, f"values of the {self.family} quantale")

    def mul(self, x: Values, y: Values) -> Values:
        """The t-norm x * y, elementwise."""
        return _result(self._mul(self._operand(x), self._operand(y)))

    def residuum(self, x: Values, y: Values) -> Values:
        """The residuum x -> y = sup{z : z * x <= y}, in closed form."""
        return _result(self._residuum(self._operand(x), self._operand(y)))

    def join(self, values: Iterable[float]) -> float:
        """Finite join; empty join is the bottom 0."""
        arr = np.asarray(list(values), dtype=float)
        self.check(arr)
        return float(arr.max(initial=BOTTOM))

    def meet(self, values: Iterable[float]) -> float:
        """Finite meet; empty meet is the top 1."""
        arr = np.asarray(list(values), dtype=float)
        self.check(arr)
        return float(arr.min(initial=UNIT))

    def _mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _residuum(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"Quantale({self.family})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Quantale) and other.family == self.family

    def __hash__(self) -> int:
        return hash(self.family)


class _Goedel(Quantale):
    family = "goedel"

    def _mul(self, x, y):
        return np.minimum(x, y)

    def _residuum(self, x, y):
        return np.where(x <= y, 1.0, y)


class _Product(Quantale):
    family = "product"

    def _mul(self, x, y):
        return x * y

    def _residuum(self, x, y):
        with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 falls under x <= y
            out = np.asarray(y / x)  # writable, also for 0-d operands
        np.putmask(out, x <= y, 1.0)
        return out


class _Lukasiewicz(Quantale):
    family = "lukasiewicz"

    def _mul(self, x, y):
        out = np.asarray(x + y)  # writable, also for 0-d operands
        np.maximum(np.subtract(out, 1.0, out=out), 0.0, out=out)
        # x + y - 1 rounds near the unit; the neutral law must be exact
        np.copyto(out, y, where=x == 1.0)
        np.copyto(out, x, where=y == 1.0)
        return out

    def _residuum(self, x, y):
        # evaluated as (1 - x) + y so that the unit residuates exactly
        out = np.asarray((1.0 - x) + y)  # writable, also for 0-d operands
        return np.minimum(out, 1.0, out=out)


class _Boolean(_Goedel):
    """Classical two-valued logic: on {0, 1} the Goedel operations are the Boolean ones."""

    family = "boolean"


GOEDEL = _Goedel()
PRODUCT = _Product()
LUKASIEWICZ = _Lukasiewicz()
BOOLEAN = _Boolean()

FAMILIES = {
    q.family: q for q in (GOEDEL, PRODUCT, LUKASIEWICZ, BOOLEAN)
}


def require_carrier(q: Quantale, values: np.ndarray) -> None:
    """Reject [0,1] values that lie outside q's carrier.

    Elements, images and structuring elements are checked against [0,1]
    when built, with no family in sight.  Only the Boolean carrier {0, 1}
    is narrower, so operators call this where a family meets them: O(n)
    under BOOLEAN and nothing for the real families.
    """
    if q == BOOLEAN and np.any((values != 0.0) & (values != 1.0)):
        raise DomainError("boolean quantale requires values in {0, 1}")


def quantale(name: str) -> Quantale:
    """Look up a family by its lowercase name as used in CLI flags and files."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown quantale family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None
