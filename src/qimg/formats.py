"""The text formats of kernels, codebooks and structuring elements.

QKERNEL 1 holds a kernel as its dense matrix::

    QKERNEL 1
    <family> <|X|> <|Y|>
    # optional comment lines
    |X| lines of |Y| decimal values, row-major in x

QCODEBOOK 1 holds a builder-made codebook as the builder's parameters,
which fix every entry of its kernel::

    QCODEBOOK 1
    <family> <builder> <m> <n> <a> <b>

A custom codebook is a QKERNEL 1 file whose ``# builder custom m n a b``
comment gives the grid shapes.  Older files of the builders, whose comment
names the builder instead, read as custom too: no builder made their body.

QSEL 1 holds a structuring element as one ``dy dx value`` line per offset.

Each file opens with its head: the magic line, then the size or parameter
line (QSEL 1 has none), with blank and ``#`` comment lines among them.  The
readers split lines as ``str.splitlines`` and strip them as ``str.strip``,
on ASCII text.  The head is read and checked from the bytes before any byte
of the body is decoded, so a head fault comes first, whatever the body
holds; a custom codebook's ``# builder`` comment belongs to the head.  A
non-ASCII byte is a fault at its offset in the file.

The readers take a file's bytes and return checked parts: a family, index
sets and kernel entries; a builder's parameters; or offsets and weights.
The writers take such parts.  Building a kernel, codebook or structuring
element from them is left to the modules that define those.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError
from .free_module import IndexSet
from .quantale import Quantale, quantale

KERNEL_MAGIC = "QKERNEL 1"
CODEBOOK_MAGIC = "QCODEBOOK 1"
SEL_MAGIC = "QSEL 1"
BUILDERS = ("triangular", "block")


def _write_lines(path, lines) -> None:
    """Write the lines as an ASCII file, each ended by a newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# the line breaks str.splitlines splits ASCII text at, and the start of a line
# that is neither blank nor a comment once str.strip has stripped it
_BREAK = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c-\x1e]")
_DATA = re.compile(rb"[ \t\x1f]*[^ \t\x1f#\n\r\x0b\x0c\x1c-\x1e]")


def _ascii(chunk, at: int) -> str:
    """chunk, a file's bytes from offset at, as ASCII text; a non-ASCII byte is a ParseError at its offset."""
    try:
        return str(chunk, "ascii")
    except UnicodeDecodeError as exc:
        byte = chunk[exc.start]
        raise ParseError(f"'ascii' codec can't decode byte {byte:#04x}", offset=at + exc.start) from None


def _line(data: bytes, pos: int) -> tuple[str, int]:
    """The stripped text of the line at offset pos, and the next line's offset."""
    brk = _BREAK.search(data, pos)
    end = brk.start() if brk else len(data)
    return _ascii(data[pos:end], pos).strip(), brk.end() if brk else end


def _head(data: bytes, magics: tuple[str, ...]) -> tuple[str, str | None, list[str], int]:
    """The magic line, one of magics, the size line, the comment texts before the first row and its offset.

    The size line is the first data line after the magic, and the first row
    the next one; QSEL 1 has no size line, so its first entry is its first
    row.  The size line is None where there is none, and the offset len(data)
    where there is no row.  The first row is not decoded.
    """
    magic, pos = _line(data, 0)
    if magic not in magics:
        raise ParseError(f"missing {' or '.join(repr(m) for m in magics)} header")
    size, comments = None, []
    while pos < len(data) and not ((size or magic == SEL_MAGIC) and _DATA.match(data, pos)):
        text, pos = _line(data, pos)
        if text.startswith("#"):
            comments.append(text[1:].strip())
        elif text:
            size = text
    return magic, size, comments, pos


def _body(data: bytes, start: int) -> tuple[list[str], list[str]]:
    """The data lines and comment texts from offset start on, stripped; no blanks."""
    stripped = [ln.strip() for ln in _ascii(memoryview(data)[start:], start).splitlines()]
    comments = [ln[1:].strip() for ln in stripped if ln.startswith("#")]
    return [ln for ln in stripped if ln and not ln.startswith("#")], comments


# --- QKERNEL 1 and QCODEBOOK 1 ------------------------------------------------

def write_qkernel(path, family: str, nx: int, ny: int, comments, blocks) -> None:
    """Write a QKERNEL 1 file of the row lists in blocks; each comment must be one line of ASCII."""
    for c in comments:
        if not c.isascii() or "".join(c.splitlines()) != c:  # checked before the file is opened
            raise ValueError(f"comment {c!r} is not one line of ASCII")
    rows = (" ".join(map(repr, row)) for block in blocks for row in block)
    _write_lines(path, [KERNEL_MAGIC, f"{family} {nx} {ny}", *(f"# {c}" for c in comments), *rows])


def write_qcodebook(path, family: str, builder: str, m: int, n: int, a: int, b: int) -> None:
    """Write a builder's parameters as a QCODEBOOK 1 file."""
    _write_lines(path, [CODEBOOK_MAGIC, f"{family} {builder} {m} {n} {a} {b}"])


def builder_comment(m: int, n: int, a: int, b: int) -> str:
    """The comment that gives a custom codebook's QKERNEL 1 file its grid shapes."""
    return f"builder custom {m} {n} {a} {b}"


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
# how far from a token's first byte above '0' the pass looks for its separators,
# and for how many tokens at a time
_REACH = 32
_EDGE_CHUNK = 1 << 10
# the uniform-rows pass reads blocks of whole rows of about _ROWS_BLOCK bytes
_ROWS_BLOCK = 1 << 18


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
    body down the dense path.
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
        # data[pos] ends the line before the block's first row, data[end] is the newline after its last
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


def _params(fields: list[str], names: tuple[str, ...]) -> tuple[str, int, int, int, int]:
    """The builder name, one of names, and grid sizes of the fields '<builder> <m> <n> <a> <b>'."""
    if fields[0] not in names:
        raise ParseError(f"unknown builder {fields[0]!r}; expected one of {names}")
    try:
        m, n, a, b = (int(tok) for tok in fields[1:])
    except ValueError:
        raise ParseError(f"malformed builder parameters {fields[1:]}") from None
    return fields[0], m, n, a, b


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


def read_qkernel(data: bytes, codebooks: bool = False, grids: bool = False):
    """The parts of a QKERNEL 1 file's bytes, or with codebooks of a QCODEBOOK 1 file's too.

    Returns (params, kernel, comments), where one of params and kernel is
    None.  A QCODEBOOK 1 file gives params = (builder, q, m, n, a, b).  A
    QKERNEL 1 file gives the keyword arguments of its Kernel, with entries
    (x, y, w) in ascending (x, y) order; with grids its index sets take the
    grid shapes of the '# builder' comment in its head.

    The head, and with it the family, the sizes and the grids, is checked
    before any row is read.  The body is then offered to _uniform_rows, which
    reads it in place; a body it refuses takes the dense path (_body, then
    one loadtxt), which reports every fault of the body.
    """
    magic, size, comments, start = _head(data, (CODEBOOK_MAGIC, KERNEL_MAGIC) if codebooks else (KERNEL_MAGIC,))
    if magic == CODEBOOK_MAGIC:
        if size is None:
            raise ParseError("expected one parameter line, found 0 data lines")
        parts = size.split()
        if len(parts) != 6:
            raise ParseError(f"expected '<family> <builder> <m> <n> <a> <b>', got {size!r}")
        name, m, n, a, b = _params(parts[1:], BUILDERS)
        q = quantale(parts[0])
        if start < len(data):
            raise ParseError(f"expected one parameter line, found {1 + len(_body(data, start)[0])} data lines")
        return (name, q, m, n, a, b), None, comments
    shapes = _grids(comments) if grids else (None, None)
    if size is None:
        raise ParseError("missing size header line")
    q, domain, codomain = _sizes(size, shapes)
    entries = _uniform_rows(data, start, domain.size, codomain.size)
    if entries is None:
        rows, more = _body(data, start)
        comments = comments + more
        if len(rows) != domain.size:
            raise ParseError(f"expected {domain.size} data rows, found {len(rows)}")
        # rows is non-empty here, so loadtxt never sees (and warns on) an empty body
        try:
            values = np.loadtxt(rows, ndmin=2, comments=None)
        except ValueError:
            values = None
        if values is None or values.shape[1] != codomain.size:
            raise ParseError(_bad_row(rows, codomain.size))
        # both row-major, so in ascending (x, y) order; NaN is nonzero, -0.0 is not
        entries = (*np.nonzero(values), values[values != 0.0])
    return None, dict(q=q, domain=domain, codomain=codomain, entries=entries), comments


# --- QSEL 1 -------------------------------------------------------------------

def write_qsel(path, items) -> None:
    """Write ((dy, dx), weight) items as a QSEL 1 file, in their order."""
    _write_lines(path, [SEL_MAGIC, *(f"{dy} {dx} {v!r}" for (dy, dx), v in items)])


def read_qsel(data: bytes) -> dict:
    """The weights by (dy, dx) offset of a QSEL 1 file's bytes."""
    lines = _body(data, _head(data, (SEL_MAGIC,))[3])[0]
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
    return entries
