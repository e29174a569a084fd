"""Translation-invariant dilation and erosion on finite rasters.

A structuring element is a finite map from integer (dy, dx) offsets to
values in [0,1].  Dilation joins t-norm products over the reflected
support, erosion meets residua over the support; with the Boolean family
and binary inputs the pair reduces to Minkowski set dilation/erosion.
The raster is embedded in the integer plane with a boundary policy:
``zero`` (extension by the lattice bottom, under which the algebraic laws
hold), ``one`` or ``replicate``.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ParseError, _names_file
from .free_module import IndexSet, _unchecked
from .grid import GridImage
from .quantale import BOOLEAN, Quantale, require_carrier, unit_carrier
from .transform import Kernel, _lines

__all__ = [
    "StructuringElement",
    "MorphConfig",
    "reflect",
    "dilate",
    "erode",
    "opening",
    "closing",
    "toeplitz_kernel",
    "preset",
    "read_sel",
    "write_sel",
]

PADDINGS = ("zero", "one", "replicate")


@dataclass(frozen=True, eq=False)
class StructuringElement:
    """Finite fuzzy shape: offsets (dy, dx) mapped to weights in [0,1]."""

    entries: Mapping[tuple[int, int], float]

    def __post_init__(self):
        items = {}
        for offset, value in dict(self.entries).items():
            try:
                dy, dx = (int(d) for d in offset)
            except (OverflowError, ValueError):  # inf and NaN have no integer value
                dy = dx = None
            if (dy, dx) != tuple(offset):
                raise ValueError(f"offset {offset!r} is not an integer pair")
            items[(dy, dx)] = float(value)
        if not items:
            raise ValueError("structuring element needs at least one offset")
        weights = unit_carrier(np.array(list(items.values())), "structuring element weights")
        object.__setattr__(self, "entries", MappingProxyType(dict(zip(items, weights.tolist()))))

    def items(self):
        return self.entries.items()

    def __repr__(self) -> str:
        return f"StructuringElement({dict(self.entries)!r})"


@dataclass(frozen=True)
class MorphConfig:
    """Quantale family plus boundary policy for the raster embedding."""

    q: Quantale
    padding: str = "zero"

    def __post_init__(self):
        if self.padding not in PADDINGS:
            raise ValueError(f"unknown padding {self.padding!r}; expected one of {PADDINGS}")


def reflect(se: StructuringElement) -> StructuringElement:
    """Reflection through the origin: the entry at d moves to -d."""
    return StructuringElement({(-dy, -dx): v for (dy, dx), v in se.items()})


# Each public op checks the element's weights and the raster's pixels
# against the family's carrier once, at its edge, and then folds an array
# in one dtype from end to end: an opening or closing chains both stages on
# that array and makes one float GridImage at the end.  The real families
# fold the float64 pixels.  The Boolean carrier is {0, 1}, so its pixels
# fold as uint8 bytes, and max and min on bytes are set union and
# intersection; its every nonzero weight is 1, so act is never called and
# the element is flat (below).  _level_fold picks no dtype: an array goes
# in and one of the same dtype comes out.
#
# Each fold pads its array once, by the element's radius r, so every
# offset is a slice view of one canvas; the edge values of ``replicate`` do
# not depend on the pad width.  Offsets are first clamped to the raster's
# extent, so r never exceeds it: a longer shift reads only padding, as a
# shift by the extent does.  Offsets of weight 0 are skipped: mul(0, f)
# is the bottom of dilation's join and residuum(0, f) the top of erosion's
# meet.
#
# The nonzero weights v_1 > v_2 > ... are folded heaviest first, as nested
# sets: level k holds every offset of weight at least v_k.  Its views are
# folded with max (min) into an accumulator that only grows from level to
# level, and the tile folds in act(v_k, accumulator) once per level, or a
# plain copy for v = 1, since mul(1, f) = residuum(1, f) = f exactly in
# every family.  Two facts make this exact on floats.  Every _mul(v, .) and
# _residuum(v, .) is non-decreasing, and a non-decreasing map commutes
# exactly with a finite max or min.  And as the weight grows, _mul(., a)
# never decreases and _residuum(., a) never increases, so an offset of
# weight w, folded again at a lighter level v < w, adds a term that never
# wins the max (min) over its own.  Both facts hold at the unit guards of
# the Lukasiewicz t-norm, _mul(v, 1) = v and _mul(1, a) = a: an operand
# below 1 is at most 1 - 2^-53, so the exact sum v + a lies at least ulp/2
# (ulp = 2^-52 on [1, 2)) below the other operand plus 1; rounding moves it
# by at most ulp/2 and the - 1 is exact there, so the product is at most
# the other operand.
#
# Read row by row, level k's offsets are one run of column shifts per row
# shift, and a row's run only grows with k.  A run of two or more offsets
# that two or more rows read is shared: once per tile it is folded into a
# buffer, starting from the largest shared run inside it that is already
# built.  Every row that reads it then folds one view of that buffer;
# other rows fold the views of the offsets their run gained.  Every source,
# a single shift's canvas view or a shared run's buffer, is addressed in
# canvas rows counted from row y of the tile, so a read shifted by dy
# takes rows r + dy onward of any source.  A build folds only the window
# of rows r + top to r + top + span + h, where top is the lowest row shift
# that reads a shared run and span <= 2r the spread of those shifts; the
# rows before the window are never written or read, so a far offset that
# reads no shared run adds no rows to the builds.  So per tile the 7x7
# cone makes 39 fold calls and 8 mul calls under product, its Boolean form
# 12 fold calls, disk5 10 and cross3 4.  A flat element (one level, of
# weight 1) folds straight into the output tile.  Each shared run holds one
# (h + r + top + span) x cols buffer per strip, h the tile's rows, of which
# h + span rows are written: 70 float rows for the cone.
#
# The fold runs over the output in tiles _TILE bytes tall, 64 float rows or
# 512 byte rows, so each pass over a tile's view, buffer and output stays
# in L2 cache.  The rows are split into at most one horizontal strip per
# usable CPU, each at least one tile tall and each folding at least
# _STRIP_WORK view bytes (pixels times nonzero offsets times the itemsize,
# although shared runs fold fewer views): the calling thread folds the
# first strip and the threads of a ThreadPoolExecutor made for the call
# fold the others, in parallel because NumPy's ufunc loops release the
# GIL.  Below that much work a helper's start, join and GIL hand-offs cost
# more than the strip saves and make the op's time vary from call to call,
# so a 256^2 raster, or 512^2 under cross3 or disk5, runs inline, without
# importing the pool, and so does every 512^2 Boolean fold: one byte tile,
# where the float cone7 takes two strips.  Every step above is
# elementwise per output pixel (max, min and a map by a scalar v) or per
# canvas pixel (a shared run), so no split of the rows changes a value,
# whatever the worker count.

_TILE = 512  # bytes down each column of the output folded per pass: 64 float rows, 512 byte rows
_STRIP_WORK = 1 << 24  # view bytes a helper strip must fold to repay its thread
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on macOS and Windows
    _WORKERS = os.cpu_count() or 1


def _clamp(offset, rows: int, cols: int) -> tuple[int, int]:
    """The offset clamped to +-rows, +-cols: a longer shift reads only padding, as a shift by the extent does."""
    dy, dx = offset
    return min(max(dy, -rows), rows), min(max(dx, -cols), cols)


def _run_strips(fold_rows, rows: int, tile_rows: int, work: int) -> None:
    """Call fold_rows(start, stop) on each strip of rows, one per worker at most; join every helper first."""
    n = max(1, min(_WORKERS, rows // tile_rows, work // _STRIP_WORK))
    if n == 1:
        return fold_rows(0, rows)  # inline: no pool and no import
    from concurrent.futures import ThreadPoolExecutor  # on the first threaded fold, not at import
    bounds = [rows * i // n for i in range(n + 1)]
    with ThreadPoolExecutor(n - 1) as helpers:  # leaving the block joins every helper
        rest = helpers.map(fold_rows, bounds[1:-1], bounds[2:])
        fold_rows(bounds[0], bounds[1])
        list(rest)  # re-raises a helper's error


def _row_plan(levels, sign: int):
    """Plan the fold of the nested level sets, heaviest first, through shared row runs.

    Returns (top, span, builds, steps) in canvas shifts, sign times the
    offsets.  A source is a run of column shifts: a single shift is the
    canvas view shifted by its column, and a shared run is its buffer.
    Both are read in one row coordinate: for the tile at output row y, row
    i of every source is canvas row y + i.  Build (run, sources) folds its
    largest sub-run already built, if there is one, then the single shifts
    it still lacks, over only the window of row shifts top to top + span
    (plus the tile's h rows) that shared runs are read at.  Step (v, reads)
    folds each read (dy, run), the source run shifted by dy rows, into the
    level accumulator.
    """
    runs: dict[int, frozenset] = {}  # canvas row shift -> column shifts folded so far
    grown = []  # per level: (v, [(y, run before, run after)]) for the rows that grew
    for v in sorted(levels, reverse=True):
        before = dict(runs)
        for dy, dx in levels[v]:
            runs[sign * dy] = runs.get(sign * dy, frozenset()) | {sign * dx}
        grown.append((v, [(y, before.get(y, frozenset()), run)
                          for y, run in sorted(runs.items()) if run != before.get(y)]))
    readers = Counter(run for _, rows in grown for _, _, run in rows)
    builds = []
    for run in sorted((run for run, n in readers.items() if n >= 2 and len(run) >= 2), key=len):
        base = max((sub for sub, _ in builds if sub < run), key=len, default=frozenset())
        builds.append((run, ([base] if base else []) + [frozenset({x}) for x in sorted(run - base)]))
    built = {run for run, _ in builds}
    steps = []
    for v, rows in grown:
        reads = []
        for y, old, new in rows:
            reads += [(y, new)] if new in built else [(y, frozenset({x})) for x in sorted(new - old)]
        if reads:  # a level whose offsets all clamp onto heavier ones adds nothing
            steps.append((v, reads))
    shared_rows = [y for _, reads in steps for y, run in reads if run in built]
    top = min(shared_rows, default=0)
    return top, max(shared_rows, default=0) - top, builds, steps


def _level_fold(se, px: np.ndarray, padding: str, sign: int, fold, act, empty: float) -> np.ndarray:
    """out(y) = fold over the offsets d of act(se(d), px(y + sign * d)); empty if none; px's dtype."""
    rows, cols = px.shape
    levels: dict[float, list[tuple[int, int]]] = {}  # nonzero weight -> its offsets
    for d, v in se.items():
        if v != 0.0:
            levels.setdefault(v, []).append(_clamp(d, rows, cols))
    if not levels:
        return np.full(px.shape, empty, px.dtype)
    out = np.empty(px.shape, px.dtype)  # every tile's first write is a copy
    r = max(max(abs(dy), abs(dx)) for offsets in levels.values() for dy, dx in offsets)
    if padding == "replicate":
        canvas = np.pad(px, r, mode="edge")
    else:
        canvas = np.pad(px, r, constant_values=0 if padding == "zero" else 1)
    top, span, builds, steps = _row_plan(levels, sign)
    shifts = {sign * dx for offsets in levels.values() for _, dx in offsets}
    flat = len(steps) == 1 and steps[0][0] == 1.0  # one level of weight 1 folds into the tile
    tile_rows = _TILE // px.itemsize

    def fold_rows(start, stop):
        acc_buf = np.empty((min(tile_rows, stop - start), cols), px.dtype)
        run_bufs = {run: np.empty((r + top + span + len(acc_buf), cols), px.dtype) for run, _ in builds}
        for y in range(start, stop, tile_rows):
            h = min(tile_rows, stop - y)
            tile = out[y : y + h]
            src = {frozenset({x}): canvas[y:, r + x : r + x + cols] for x in shifts}
            src.update(run_bufs)  # row i of every source is canvas row y + i
            window = slice(r + top, r + top + span + h)
            for run, sources in builds:
                buf = src[run][window]
                fold(src[sources[0]][window], src[sources[1]][window], out=buf)
                for part in sources[2:]:
                    fold(buf, src[part][window], out=buf)
            acc = tile if flat else acc_buf[:h]
            for k, (v, reads) in enumerate(steps):
                for i, (dy, run) in enumerate(reads):
                    view = src[run][r + dy : r + dy + h]
                    if k == i == 0:
                        np.copyto(acc, view)
                    else:
                        fold(acc, view, out=acc)
                if acc is not tile:
                    level = acc if v == 1.0 else act(v, acc)
                    if k == 0:
                        np.copyto(tile, level)
                    else:
                        fold(tile, level, out=tile)

    views = rows * cols * sum(map(len, levels.values()))
    _run_strips(fold_rows, rows, tile_rows, views * px.itemsize)
    return out


def _carrier(se: StructuringElement, img: GridImage, cfg: MorphConfig) -> np.ndarray:
    """img's pixels, checked once against cfg's carrier: bytes under BOOLEAN, whose nonzero weights are all 1."""
    require_carrier(cfg.q, np.array(list(se.entries.values())))
    require_carrier(cfg.q, img.pixels)
    return img.pixels.astype(np.uint8) if cfg.q == BOOLEAN else img.pixels


def _dilate(se, px, cfg):
    return _level_fold(se, px, cfg.padding, -1, np.maximum, cfg.q._mul, 0.0)


def _erode(se, px, cfg):
    return _level_fold(se, px, cfg.padding, 1, np.minimum, cfg.q._residuum, 1.0)


def _image(px: np.ndarray) -> GridImage:
    return _unchecked(GridImage, px.astype(float, copy=False))


def dilate(se: StructuringElement, img: GridImage, cfg: MorphConfig) -> GridImage:
    """out(y) = join over x of mul(se(y - x), img(x))."""
    return _image(_dilate(se, _carrier(se, img, cfg), cfg))


def erode(se: StructuringElement, img: GridImage, cfg: MorphConfig) -> GridImage:
    """out(x) = meet over y of residuum(se(y - x), img(y))."""
    return _image(_erode(se, _carrier(se, img, cfg), cfg))


def opening(se: StructuringElement, img: GridImage, cfg: MorphConfig) -> GridImage:
    """Erode then dilate; anti-extensive and idempotent."""
    return _image(_dilate(se, _erode(se, _carrier(se, img, cfg), cfg), cfg))


def closing(se: StructuringElement, img: GridImage, cfg: MorphConfig) -> GridImage:
    """Dilate then erode; extensive and idempotent."""
    return _image(_erode(se, _dilate(se, _carrier(se, img, cfg), cfg), cfg))


def toeplitz_kernel(se: StructuringElement, rows: int, cols: int, cfg: MorphConfig) -> Kernel:
    """The offset-invariant kernel p(x, y) = se(y - x) on a rows x cols grid.

    Reference path only: its forward/inverse transforms reproduce dilation
    and erosion without the windowed shortcuts.  Each offset is one band of
    entries, so the kernel stores at most |se| entries per pixel.
    """
    offsets = np.array([_clamp(d, rows, cols) for d in se.entries])  # (|se|, 2)
    v = np.array(list(se.entries.values()))
    r = np.arange(rows)[:, None, None]
    c = np.arange(cols)[None, :, None]
    tr, tc = r + offsets[:, 0], c + offsets[:, 1]  # (rows, cols, |se|): where offsets land
    inside = (tr >= 0) & (tr < rows) & (tc >= 0) & (tc < cols)
    x = np.broadcast_to(r * cols + c, inside.shape)[inside]
    w = np.broadcast_to(v, inside.shape)[inside]
    index = IndexSet(rows * cols, (rows, cols))
    return Kernel(cfg.q, index, index, entries=(x, (tr * cols + tc)[inside], w))


# --- presets and the QSEL text format ---------------------------------------

def _all_ones(offsets) -> StructuringElement:
    return StructuringElement({d: 1.0 for d in offsets})


PRESETS = {
    # 3x3 cross: origin plus the four 4-neighbours
    "cross3": _all_ones([(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]),
    # full 3x3 square
    "square3": _all_ones([(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]),
    # 5x5 disk: offsets with dy^2 + dx^2 <= 4
    "disk5": _all_ones(
        [
            (dy, dx)
            for dy in range(-2, 3)
            for dx in range(-2, 3)
            if dy * dy + dx * dx <= 4
        ]
    ),
}


def preset(name: str) -> StructuringElement:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}") from None


SEL_MAGIC = "QSEL 1"


def write_sel(path, se: StructuringElement) -> None:
    lines = [SEL_MAGIC, *(f"{dy} {dx} {v!r}" for (dy, dx), v in sorted(se.items()))]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


@_names_file
def read_sel(path) -> StructuringElement:
    _, lines, _ = _lines(Path(path).read_bytes(), SEL_MAGIC)
    entries = {}
    for i, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(f"entry {i} is not 'dy dx value'")
        try:
            dy, dx, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"entry {i} is malformed") from None
        if (dy, dx) in entries:
            raise ParseError(f"entry {i} repeats offset ({dy}, {dx})")
        entries[(dy, dx)] = v
    if not entries:
        raise ParseError("no entries")
    return StructuringElement(entries)
