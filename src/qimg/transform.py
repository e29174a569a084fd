"""Join-product transforms between free modules and their kernels.

A kernel p over X x Y induces the forward operator
``forward(p, f)(y) = max_x mul(f(x), p(x, y))`` and its adjoint
``inverse(p, g)(x) = min_y residuum(p(x, y), g(y))``.  The module also
classifies kernels along the coder hierarchy (general < normal < strong,
with orthogonality tracked separately and orthonormal at the top) and
extracts the kernel of an arbitrary join-preserving map by probing it
with basis elements.  The paper's "coder" level is absent: the unit
e = 1 is also the top, so its clause p(eps(y), y) >= e is the normal one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParseError, ShapeError, _names_file
from .free_module import IndexSet, ModuleElement, _fill, _unchecked, delta
from .quantale import TINY, Quantale, quantale, require_carrier

__all__ = [
    "Kernel",
    "KernelClass",
    "KernelLevel",
    "forward",
    "inverse",
    "classify",
    "is_orthogonal",
    "kernel_of",
    "compose",
    "identity_kernel",
    "read_kernel",
    "write_kernel",
]


def _ell(keys: np.ndarray, idx: np.ndarray, w: np.ndarray, n: int):
    """Pad (key, index, weight) triplets into slot-major (width, n) arrays.

    Column k holds key k's entries in their input order, then padding of
    index 0 and weight 0; width is at least 1, so every key has a slot.
    """
    counts = np.bincount(keys, minlength=n)
    starts = np.cumsum(counts) - counts
    order = np.argsort(keys, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(keys.size) - np.repeat(starts, counts)
    out_idx = np.zeros((max(1, int(counts.max())), n), dtype=np.intp)
    out_w = np.zeros(out_idx.shape)
    out_idx[slot, keys] = idx
    out_w[slot, keys] = w
    return out_idx, out_w


def _check_entries(x: np.ndarray, y: np.ndarray, w: np.ndarray, nx: int, ny: int) -> None:
    """Reject entries of unequal lengths, non-integer or out-of-range indices, or a repeated pair."""
    if not x.size == y.size == w.size:
        raise ShapeError(f"kernel entries hold {x.size} x's, {y.size} y's and {w.size} weights")
    for name, idx, size in (("x", x, nx), ("y", y, ny)):
        if idx.dtype.kind not in "iu":
            raise ShapeError(f"kernel entry {name} indices must be integers, not {idx.dtype}")
        if idx.size and not (idx.min() >= 0 and idx.max() < size):
            raise ShapeError(f"kernel entry {name} indices must lie in 0..{size - 1}")
    pairs = x * ny + y
    if np.any(pairs[1:] <= pairs[:-1]):  # ascending pairs are distinct; sort only the rest
        pairs = np.sort(pairs)
        if np.any(pairs[1:] == pairs[:-1]):
            raise ShapeError("kernel entries repeat an (x, y) pair")


@dataclass(frozen=True, eq=False, init=False)
class Kernel:
    """A map X x Y -> [0,1] tagged with the quantale its transform uses.

    Only the nonzero entries are stored, twice, in padded slot-major layouts
    (ELL): slot s of row x holds the s-th y with p(x, y) > 0, and slot s of
    column y the s-th x, so forward and inverse reduce across slots.  Padding
    has weight 0, which is exact for every family: mul(f, 0) = 0 is the
    bottom of forward's join and residuum(0, g) = 1 the top of inverse's
    meet.  Weights below the smallest normal float are stored as 0: the
    float product underflows on them, which would break the adjunction.
    """

    q: Quantale
    domain: IndexSet
    codomain: IndexSet
    row_idx: np.ndarray  # (row width, |X|): [s, x] is the s-th y of row x, padded with 0
    row_w: np.ndarray  # their weights p(x, y), padded with 0
    col_idx: np.ndarray  # (column width, |Y|): [s, y] is the s-th x of column y, padded with 0
    col_w: np.ndarray  # their weights p(x, y), padded with 0

    def __init__(self, q: Quantale, domain: IndexSet, codomain: IndexSet, values=None, *,
                 entries=None):
        """Build from a dense (|X|, |Y|) matrix, or from entries=(x, y, w).

        The entries are the weights of distinct (x, y) pairs, in any order;
        pairs left out are 0.  Either form is checked once, as its nonzero weights.
        """
        if (values is None) == (entries is None):
            raise ShapeError("a kernel takes exactly one of dense values and entries")
        if entries is None:
            arr = np.asarray(values, dtype=float)
            if arr.shape != (domain.size, codomain.size):
                raise ShapeError(
                    f"kernel values shaped {arr.shape}, expected ({domain.size}, {codomain.size})"
                )
            flat = np.flatnonzero(arr != 0.0)  # row-major, so already grouped by x
            x, y = np.divmod(flat, codomain.size)
            w = arr.reshape(-1)[flat]
        else:
            x, y, w = (np.asarray(a).reshape(-1) for a in entries)
            x, y = (i if i.size else i.astype(np.intp) for i in (x, y))  # np.asarray([]) is float
            _check_entries(x, y, w, domain.size, codomain.size)
        q.check(w)  # NaN and every value outside the carrier are nonzero, so they are in w
        keep = w >= TINY
        x, y, w = x[keep], y[keep], w[keep]
        _fill(self, q, domain, codomain, *_ell(x, y, w, domain.size), *_ell(y, x, w, codomain.size))

    def _dense(self, rows: slice) -> np.ndarray:
        """The dense matrix of the given rows."""
        idx, w = self.row_idx[:, rows], self.row_w[:, rows]
        out = np.zeros((idx.shape[1], self.codomain.size))
        # real entries only: a padding slot shares index 0 with a real entry there
        s, r = np.nonzero(w)
        out[r, idx[s, r]] = w[s, r]
        return out

    @property
    def values(self) -> np.ndarray:
        """The dense (|X|, |Y|) matrix, built afresh: O(|X|*|Y|), for tests and small kernels."""
        out = self._dense(slice(None))
        out.setflags(write=False)
        return out

    def __repr__(self) -> str:
        return f"Kernel({self.q.family}, |X|={self.domain.size}, |Y|={self.codomain.size})"


class KernelLevel(enum.Enum):
    """Tags of the kernel hierarchy."""

    GENERAL = "general"
    NORMAL = "normal"
    STRONG = "strong"
    ORTHONORMAL = "orthonormal"


@dataclass(frozen=True)
class KernelClass:
    level: KernelLevel
    epsilon: tuple[int, ...] | None  # epsilon[y] = x, injective, when level >= NORMAL
    orthogonal: bool


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeError(message)


def forward(p: Kernel, f: ModuleElement) -> ModuleElement:
    """Apply the transform with kernel p to f in Q^X."""
    _require(f.index == p.domain, f"element over {f.index} fed to kernel domain {p.domain}")
    require_carrier(p.q, f.values)
    out = p.q._mul(f.values[p.col_idx], p.col_w).max(axis=0)
    return _unchecked(ModuleElement, p.codomain, out)


def inverse(p: Kernel, g: ModuleElement) -> ModuleElement:
    """Apply the inverse (residual) transform with kernel p to g in Q^Y."""
    _require(g.index == p.codomain, f"element over {g.index} fed to kernel codomain {p.codomain}")
    require_carrier(p.q, g.values)
    out = p.q._residuum(p.row_w, g.values[p.row_idx]).min(axis=0)
    return _unchecked(ModuleElement, p.domain, out)


def identity_kernel(q: Quantale, index: IndexSet) -> Kernel:
    diagonal = np.arange(index.size)
    return Kernel(q, index, index, entries=(diagonal, diagonal, np.ones(index.size)))


def compose(p1: Kernel, p2: Kernel) -> Kernel:
    """Kernel of the composite transform: forward(compose(p1,p2), f) = forward(p2, forward(p1, f))."""
    _require(p1.codomain == p2.domain, "inner index sets differ")
    _require(p1.q == p2.q, "kernels live over different quantales")
    # row x of p1 reaches y = p1.row_idx[s, x], and row y of p2 reaches z
    w = p1.q._mul(p1.row_w, p2.row_w[:, p1.row_idx])  # (t, s, |X|)
    t, s, x = np.nonzero(w)
    pair = x * p2.codomain.size + p2.row_idx[t, p1.row_idx[s, x]]
    order = np.argsort(pair)
    pair, w = pair[order], w[t, s, x][order]
    # several y can link one (x, z): keep the join of their products
    first = np.flatnonzero(np.diff(pair, prepend=-1))
    x, z = np.divmod(pair[first], p2.codomain.size)
    return Kernel(p1.q, p1.domain, p2.codomain, entries=(x, z, np.maximum.reduceat(w, first)))


def kernel_of(
    h: Callable[[ModuleElement], ModuleElement],
    q: Quantale,
    domain: IndexSet,
    codomain: IndexSet,
) -> Kernel:
    """Extract the kernel of a join- and scalar-preserving map Q^X -> Q^Y.

    Probes h with every basis element; p(x, y) = h(delta_x)(y).  The caller
    guarantees h is a homomorphism, which is not checked.
    """
    rows = []
    for x in range(domain.size):
        image = h(delta(domain, x))
        _require(image.index == codomain, "probed map does not land in the stated codomain")
        rows.append(image.values)
    return Kernel(q, domain, codomain, np.stack(rows))


def is_orthogonal(p: Kernel) -> bool:
    """True iff every row annihilates across distinct codomain indices.

    Exact zero test: orthogonality is structural, no tolerance applies.
    Every family's mul is monotone, so a row annihilates iff the product of
    its two largest weights is 0.
    """
    if p.row_w.shape[0] < 2:
        return True
    top = np.sort(p.row_w, axis=0)[-2:]
    return not np.any(p.q._mul(top[0], top[1]) != 0.0)


def _augment(root: int, adj: Sequence[Sequence[int]], match_x: dict[int, int]) -> bool:
    """Extend the matching by one depth-first augmenting path from column root.

    Iterative: stack[i] is a column with the rest of its candidate rows,
    path[i] the row it is trying.  Rows are tried in list order and each
    row at most once per search.
    """
    seen: set[int] = set()
    stack = [(root, iter(adj[root]))]
    path: list[int] = []
    while stack:
        x = next((x for x in stack[-1][1] if x not in seen), None)
        if x is None:
            stack.pop()
            if path:
                path.pop()
            continue
        seen.add(x)
        path.append(x)
        if x not in match_x:
            # flip the path: every column on the stack takes the row it tried
            for (y, _), px in zip(stack, path):
                match_x[px] = y
            return True
        stack.append((match_x[x], iter(adj[match_x[x]])))
    return False


def _normal_witness(p: Kernel) -> tuple[int, ...] | None:
    """Match every column to a distinct row holding 1 there, or report failure."""
    adj: list[list[int]] = [[] for _ in range(p.codomain.size)]
    xs, slots = np.nonzero(p.row_w.T == 1.0)  # x-major, so each list ascends in x
    for x, y in zip(xs.tolist(), p.row_idx[slots, xs].tolist()):
        adj[y].append(x)
    match_x: dict[int, int] = {}
    for y in range(len(adj)):
        if not _augment(y, adj, match_x):
            return None
    eps = [0] * len(adj)
    for x, y in match_x.items():
        eps[y] = x
    return tuple(eps)


def _strong_witness(p: Kernel) -> tuple[int, ...] | None:
    """Read a strong injection off the rows, or None if some column has none.

    A strong row is 1 at exactly one column and 0 elsewhere, so each row
    serves one column only and no search is needed: column y takes the
    first strong row whose unit sits at y.
    """
    w = p.row_w
    rows = np.flatnonzero((np.count_nonzero(w, axis=0) == 1) & (w.max(axis=0) == 1.0))
    cols, first = np.unique(p.row_idx[w[:, rows].argmax(axis=0), rows], return_index=True)
    if cols.size != p.codomain.size:
        return None
    return tuple(rows[first].tolist())


def classify(p: Kernel) -> KernelClass:
    """Place p in the kernel hierarchy and exhibit a witnessing injection.

    The defining clauses compare exactly against 1.0 and 0.0.  Strong
    witnesses are read off the rows; a normal injection exists iff the
    unit entries hold a matching covering Y.
    """
    orthogonal = is_orthogonal(p)
    eps = _strong_witness(p)
    if eps is not None:
        level = KernelLevel.ORTHONORMAL if orthogonal else KernelLevel.STRONG
        return KernelClass(level, eps, orthogonal)
    eps = _normal_witness(p)
    if eps is not None:
        return KernelClass(KernelLevel.NORMAL, eps, orthogonal)
    return KernelClass(KernelLevel.GENERAL, None, orthogonal)


# --- QKERNEL text format ---------------------------------------------------
#
#   QKERNEL 1
#   <family> <|X|> <|Y|>
#   # optional comment lines
#   |X| lines of |Y| decimal values, row-major in x

KERNEL_MAGIC = "QKERNEL 1"
_WRITE_BLOCK = 1 << 16  # entries densified at once by write_kernel


def write_kernel(path, p: Kernel, comments: Sequence[str] = ()) -> None:
    lines = [KERNEL_MAGIC, f"{p.q.family} {p.domain.size} {p.codomain.size}"]
    lines.extend(f"# {c}" for c in comments)
    # a block of rows at a time, so the dense matrix never exists whole
    step = max(1, _WRITE_BLOCK // p.codomain.size)
    for start in range(0, p.domain.size, step):
        block = p._dense(slice(start, start + step)).tolist()
        lines.extend(" ".join(map(repr, row)) for row in block)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path, *magics: str) -> tuple[str, list[str], list[str]]:
    """The magic line, one of magics, then the data lines and comment texts, stripped; no blanks."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    magic = raw[0].strip() if raw else ""
    if magic not in magics:
        raise ParseError(f"missing {' or '.join(repr(m) for m in magics)} header")
    stripped = [ln.strip() for ln in raw[1:]]
    comments = [ln[1:].strip() for ln in stripped if ln.startswith("#")]
    return magic, [ln for ln in stripped if ln and not ln.startswith("#")], comments


def _bad_row(rows: list[str], ny: int) -> str:
    """Describe the first data row that loadtxt rejects; error path only."""
    for i, row in enumerate(rows):
        count = len(row.split())
        if count != ny:
            return f"row {i} has {count} values, expected {ny}"
        try:
            np.loadtxt([row], comments=None)
        except ValueError:
            return f"row {i} holds a non-numeric token"
    return "malformed data rows"


# The body scan reads a mostly-zero body in blocks of a fixed number of rows,
# about _SCAN_BLOCK bytes as sized from the first row, small enough for each
# pass over a block to stay in cache.
_SCAN_BLOCK = 1 << 16
# every byte but '0' that a separator or a loadtxt float may hold: digits,
# signs, exponents and the letters of nan, inf and infinity
_NUMBER_BYTES = b" \t\n.123456789+-eEnaiftyNAIFTY"


def _scan_block(rows: list[str], ny: int):
    """Where a block's tokens that are not a literal +0 sit, and their texts; or None.

    None unless every byte is a separator or may be part of a number, every
    row holds ny tokens and at most one token in 8 needs converting.  A
    token of only '0' and '.', with one '.' at most and one '0' at least,
    reads as +0.0 and is skipped.  Token k is entry k of the block, row-major.
    """
    text = "\n".join(["", *rows, ""])  # a newline before and after every row
    data = text.encode("ascii")
    zeroless = data.translate(None, b"0")
    if zeroless.translate(None, _NUMBER_BYTES):
        return None
    # with the zeros gone, two dots of one token with no other byte between meet
    dots = np.frombuffer(zeroless, dtype=np.uint8) == 46
    if np.any(dots[1:] & dots[:-1]):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    word = raw > 32  # the separators are the bytes up to ' '
    bound = np.flatnonzero(word[1:] != word[:-1]) + 1  # text opens and closes with a separator
    starts, ends = bound[0::2], bound[1::2]
    newlines = np.cumsum([len(row) + 1 for row in rows])  # the one after each row
    if np.any(np.searchsorted(starts, newlines) != ny * np.arange(1, len(rows) + 1)):
        return None
    if np.any(raw[starts[ends - starts == 1]] == 46):  # a lone '.'
        return None
    # a byte above '0', or a sign: every other byte of a token is '0' or '.'
    numeric = np.flatnonzero((raw > 48) | (word & (raw < 46)))
    firsts = numeric[np.diff(numeric, prepend=-2) > 1]  # the first byte of each run of them
    convert = np.unique(np.searchsorted(starts, firsts, side="right") - 1)
    if convert.size * 8 > starts.size:
        return None
    return convert, [text[s:e] for s, e in zip(starts[convert].tolist(), ends[convert].tolist())]


def _scan_body(rows: list[str], ny: int):
    """The row-major positions and weights of a mostly-zero body's tokens other than +0, or None.

    The tokens the block scans keep are converted by the same loadtxt call
    as the dense path, so each weight is bit for bit the same; None sends
    the body down that path, which then reports any error.
    """
    positions, tokens = [], []
    step = max(1, _SCAN_BLOCK // (len(rows[0]) + 1))  # rows all hold ny tokens, so one sizes all
    for start in range(0, len(rows), step):
        found = _scan_block(rows[start:start + step], ny)
        if found is None:
            return None
        positions.append(found[0] + start * ny)
        tokens.extend(found[1])
    w = np.zeros(0)
    if tokens:  # loadtxt warns on an empty input
        try:
            w = np.loadtxt(tokens, ndmin=1, comments=None)
        except ValueError:
            return None
    return np.concatenate(positions), w  # Kernel drops the weights below TINY, -0 among them


def _parse_kernel(lines: list[str], shapes=(None, None)) -> Kernel:
    """The kernel of a QKERNEL 1 file's data lines, over index sets of the given grid shapes.

    A shape that does not cover its header size fails before the body is parsed.
    """
    if not lines:
        raise ParseError("missing size header line")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"expected '<family> <|X|> <|Y|>', got {lines[0]!r}")
    q = quantale(head[0])
    try:
        nx, ny = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(f"sizes must be integers, got {lines[0]!r}") from None
    domain, codomain = IndexSet(nx, shapes[0]), IndexSet(ny, shapes[1])
    rows = lines[1:]
    if len(rows) != nx:
        raise ParseError(f"expected {nx} data rows, found {len(rows)}")
    scanned = _scan_body(rows, ny)
    if scanned is not None:
        x, y = np.divmod(scanned[0], ny)
        return Kernel(q, domain, codomain, entries=(x, y, scanned[1]))
    # rows is non-empty here, so loadtxt never sees (and warns on) an empty body
    try:
        values = np.loadtxt(rows, ndmin=2, comments=None)
    except ValueError:
        values = None
    if values is None or values.shape[1] != ny:
        raise ParseError(_bad_row(rows, ny))
    return Kernel(q, domain, codomain, values)


@_names_file
def read_kernel(path) -> tuple[Kernel, list[str]]:
    """Parse a QKERNEL file; returns the kernel and any comment lines."""
    _, lines, comments = _read_lines(path, KERNEL_MAGIC)
    return _parse_kernel(lines), comments
