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
from pathlib import Path
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


def _require(cond: bool, message: str, *args) -> None:
    """Raise ShapeError unless cond; the message is formatted with args only then."""
    if not cond:
        raise ShapeError(message.format(*args))


def forward(p: Kernel, f: ModuleElement) -> ModuleElement:
    """Apply the transform with kernel p to f in Q^X."""
    _require(f.index == p.domain, "element over {} fed to kernel domain {}", f.index, p.domain)
    require_carrier(p.q, f.values)
    out = p.q._mul(f.values[p.col_idx], p.col_w).max(axis=0)
    return _unchecked(ModuleElement, p.codomain, out)


def inverse(p: Kernel, g: ModuleElement) -> ModuleElement:
    """Apply the inverse (residual) transform with kernel p to g in Q^Y."""
    _require(g.index == p.codomain, "element over {} fed to kernel codomain {}", g.index, p.codomain)
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
    for y, rows in enumerate(adj):
        if rows and rows[0] not in match_x:  # _augment's own first step, without its set-up
            match_x[rows[0]] = y
        elif not _augment(y, adj, match_x):
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
    """Write p as a QKERNEL 1 file; each comment must be one line of ASCII, so it reads back."""
    for c in comments:
        if not c.isascii() or "".join(c.splitlines()) != c:  # checked before the file is opened
            raise ValueError(f"comment {c!r} is not one line of ASCII")
    lines = [KERNEL_MAGIC, f"{p.q.family} {p.domain.size} {p.codomain.size}"]
    lines.extend(f"# {c}" for c in comments)
    # a block of rows at a time, so the dense matrix never exists whole
    step = max(1, _WRITE_BLOCK // p.codomain.size)
    for start in range(0, p.domain.size, step):
        block = p._dense(slice(start, start + step)).tolist()
        lines.extend(" ".join(map(repr, row)) for row in block)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _lines(data: bytes, *magics: str) -> tuple[str, list[str], list[str]]:
    """The magic line, one of magics, then the data lines and comment texts, stripped; no blanks."""
    raw = data.decode("ascii").splitlines()
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


# the bytes a loadtxt float may hold: digits, '.', signs, exponents and the
# letters of nan, inf and infinity
_NUMBER_BYTES = b"0.123456789+-eEnaiftyNAIFTY"
# the bytes of a line before the first row: on these, splitting at newlines and
# stripping the bytes read the line as _lines does
_HEAD_BYTES = bytes(range(32, 127)) + b"\t"
# how far from a token's first byte above '0' the pass looks for its separators,
# and for how many tokens at a time
_REACH = 32
_EDGE_CHUNK = 1 << 10
# the uniform-rows pass reads blocks of whole rows of about _ROWS_BLOCK bytes
_ROWS_BLOCK = 1 << 18


def _plain_head(data: bytes):
    """The size line, comment texts and first row's offset of a QKERNEL 1 file; None unless plain.

    Plain: the bytes open with the magic line, and every line before the first
    row holds only printable ASCII and tabs.
    """
    pos = len(KERNEL_MAGIC) + 1
    if data[:pos] != KERNEL_MAGIC.encode() + b"\n":
        return None
    size, comments = None, []
    while pos < len(data):
        end = data.find(b"\n", pos)
        line = data[pos:end if end >= 0 else len(data)]
        text = line.strip()
        if size is not None and text and not text.startswith(b"#"):
            return size, comments, pos
        if line.translate(None, _HEAD_BYTES):
            return None
        if text.startswith(b"#"):
            comments.append(text[1:].strip().decode("ascii"))
        elif text:
            size = text.decode("ascii")
        pos = len(data) if end < 0 else end + 1
    return None


def _token_edges(raw: np.ndarray, firsts: np.ndarray):
    """Where the tokens holding the bytes at firsts start and end; or None.

    A token starts after the nearest separator (a byte up to ' ') before its
    byte at firsts and ends at the nearest one after, or at the end of raw.
    None if either lies more than _REACH bytes away.
    The windows are read _EDGE_CHUNK tokens at a time, to bound their memory.
    """
    starts, ends = np.empty_like(firsts), np.empty_like(firsts)
    for k in range(0, firsts.size, _EDGE_CHUNK):
        f = firsts[k:k + _EDGE_CHUNK]
        near = f[:, None] + np.arange(-_REACH, _REACH)
        near = (raw.take(near, mode="clip") > 32) & (near < raw.size)
        if near.reshape(-1, 2, _REACH).all(axis=2).any():
            return None
        # the first separator down from f - 1, and up from f
        starts[k:k + _EDGE_CHUNK] = f - near[:, _REACH - 1::-1].argmin(axis=1)
        ends[k:k + _EDGE_CHUNK] = f + near[:, _REACH:].argmin(axis=1)
    return starts, ends


def _uniform_rows(data: bytes, start: int, nx: int, ny: int):
    """The entries (x, y, w) of a body of zeros spelled alike and single spaces, or None.

    The zero spelling z is the first token of only '0's and one '.' at most
    in the first 4 KiB of the first row, so a long row is never split whole;
    the zero row r0 is ny z's split by spaces and ended by a newline.  In
    each block of whole rows, the tokens that hold a byte above '0' are cut
    out and z joins the pieces around them: the result must be r0 repeated,
    so every row holds ny tokens, every other token is z, and a cut token's
    row and column follow from its offset in the joined bytes.  A block that
    fails refuses the body before any later block is read, and so does a body
    with no final newline.  The cut tokens go to one loadtxt call, as the dense
    path reads them, so each weight is bit for bit the same.  None sends the
    file down the str path.
    """
    first = data[start:start + (1 << 12)].split(b"\n", 1)[0]
    z = next((t for t in first.split(b" ")
              if b"0" in t and t.count(b".") < 2 and not t.translate(None, b"0.")), None)
    # a body the pass takes ends in a newline and joins to at most 9/8 of its
    # length (one run in 8 tokens, each cut token at least one byte), so a
    # larger claim fails here, before the zero row is built
    if z is None or not data.endswith(b"\n") or nx * ny * (len(z) + 1) > 2 * (len(data) - start):
        return None
    r0 = b" ".join([z] * ny) + b"\n"
    raw = np.frombuffer(data, dtype=np.uint8)
    rows, starts, stops, texts = 0, [], [], []
    pos = start - 1
    while pos < len(data) - 1:
        # data[pos] is the newline before the block's first row, data[end] the one after its last
        end = data.find(b"\n", min(pos + _ROWS_BLOCK, len(data) - 1))
        above = np.flatnonzero(raw[pos:end] > 48) + pos
        runs = np.concatenate((above[:1], above[1:][above[1:] - above[:-1] > 1]))  # their first bytes
        # at most one run among 8 tokens, counted as in a block of zero rows
        if runs.size * 8 * (len(z) + 1) > end + 1 - pos:
            return None
        edges = _token_edges(raw, runs)
        if edges is None:
            return None
        new = np.ones(runs.size, dtype=bool)  # a token's first run
        new[1:] = edges[0][1:] != edges[0][:-1]
        s, e = edges[0][new].tolist(), edges[1][new].tolist()
        cut = [data[i:j] for i, j in zip(s, e)]
        joined = z.join([data[i:j] for i, j in zip([pos + 1, *e], [*s, end + 1])])
        k = len(joined) // len(r0)
        if joined != r0 * k or b"".join(cut).translate(None, _NUMBER_BYTES):
            return None
        rows += k
        starts += s
        stops += e
        texts += cut
        pos = end
    if rows != nx:
        return None
    try:  # loadtxt warns on an empty input
        w = np.loadtxt(texts, ndmin=1, comments=None) if texts else np.zeros(0)
    except ValueError:
        return None
    # the offsets of the cut tokens in the joined body
    starts, stops = np.array(starts, dtype=np.intp), np.array(stops, dtype=np.intp)
    lengths = stops - starts
    at = starts - start - (np.cumsum(lengths) - lengths) + len(z) * np.arange(starts.size)
    return at // len(r0), at % len(r0) // (len(z) + 1), w


def _sizes(line: str, shapes) -> tuple[Quantale, IndexSet, IndexSet]:
    """The family and the index sets, of the given grid shapes, that a QKERNEL 1 size line names."""
    head = line.split()
    if len(head) != 3:
        raise ParseError(f"expected '<family> <|X|> <|Y|>', got {line!r}")
    q = quantale(head[0])
    try:
        nx, ny = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(f"sizes must be integers, got {line!r}") from None
    return q, IndexSet(nx, shapes[0]), IndexSet(ny, shapes[1])


def _scan_file(data: bytes, shapes=lambda comments: (None, None)):
    """The kernel and comment texts of a QKERNEL 1 file's bytes, read in place; or None.

    The file is read in place when its head is plain and _uniform_rows takes
    its body.  shapes maps the comment texts to the grid shapes of X and Y.
    None sends the file down the str path (_lines, then _parse_kernel), which
    reads every other file and reports every error: a fault of the head waits
    for it too, as an error further on (a non-ASCII byte among the rows, say)
    comes first there.
    """
    head = _plain_head(data)
    if head is None:
        return None
    size, comments, start = head
    try:
        q, domain, codomain = _sizes(size, shapes(comments))
    except ValueError:
        return None
    entries = _uniform_rows(data, start, domain.size, codomain.size)
    return None if entries is None else (Kernel(q, domain, codomain, entries=entries), comments)


def _parse_kernel(lines: list[str], shapes=(None, None)) -> Kernel:
    """The kernel of a QKERNEL 1 file's data lines, over index sets of the given grid shapes.

    This is the str path, for the files _scan_file does not read: one dense
    loadtxt reads the rows, and a row it rejects is named in the error.  A
    shape that does not cover its header size fails before the body is parsed.
    """
    if not lines:
        raise ParseError("missing size header line")
    q, domain, codomain = _sizes(lines[0], shapes)
    nx, ny = domain.size, codomain.size
    rows = lines[1:]
    if len(rows) != nx:
        raise ParseError(f"expected {nx} data rows, found {len(rows)}")
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
    data = Path(path).read_bytes()
    scanned = _scan_file(data)
    if scanned is not None:
        return scanned
    _, lines, comments = _lines(data, KERNEL_MAGIC)
    return _parse_kernel(lines), comments
