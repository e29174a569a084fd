"""PGM (portable greymap) reader and writer, P2 and P5 with maxval 255.

Pixel bytes 0..255 map to [0,1] by division; writing quantizes back with
round-half-up, so write-then-read is byte-exact and read-then-write
reproduces the original payload.
"""

from __future__ import annotations

import contextlib
import re

import numpy as np

from .errors import ParseError, _names_file
from .free_module import _unchecked
from .grid import GridImage

__all__ = ["read_pgm", "write_pgm"]

MAXVAL = 255

# separators are whitespace runs and '#' comments up to end-of-line; a token
# ends at either, and an empty token group means the data ran out
_HEADER = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)" * 4)
_COMMENT = re.compile(rb"#[^\n]*")
_TOKEN_OR_COMMENT = re.compile(rb"#[^\n]*|[^\s#]+")


# the bytes of a plain P2 body: digits and the whitespace bytes.split splits on
_P2_BYTES = b"0123456789 \t\n\r\x0b\x0c"


def _scan_samples(body: bytes, count: int):
    """The first count samples of a comment-free P2 body, or None; never raises.

    None unless every byte is a digit or whitespace, there are count tokens
    and each of the first count has 1-3 digits and a value up to MAXVAL.
    """
    if body.translate(None, _P2_BYTES):
        return None
    raw = np.frombuffer(body, dtype=np.uint8)
    bound = np.flatnonzero(np.diff(raw > 32, prepend=False, append=False))  # whitespace is below '0'
    if bound.size < 2 * count:
        return None
    ends = bound[1 : 2 * count : 2]
    length = ends - bound[0 : 2 * count : 2]
    if length.max() > 3:
        return None

    def digit(back):  # the digit back places before each token's end; 0 past its start
        return (raw.take(ends - 1 - back, mode="clip").astype(np.int64) - 48) * (length > back)

    samples = digit(0) + 10 * digit(1) + 100 * digit(2)
    return None if samples.max() > MAXVAL else samples


def _bad_sample(data: bytes, pos: int, count: int, found: int) -> ParseError:
    """Locate the first P2 sample the bulk conversion rejected, or the shortfall; error path only."""
    tokens = (m for m in _TOKEN_OR_COMMENT.finditer(data, pos) if m[0][:1] != b"#")
    for i, m in zip(range(count), tokens):
        try:
            v = int(m[0])
        except ValueError:
            return ParseError(f"sample {i} is not an integer: {m[0]!r}", offset=m.start())
        if not 0 <= v <= MAXVAL:
            return ParseError(f"sample {i} value {v} outside 0..{MAXVAL}", offset=m.end())
    return ParseError(f"short payload: {found} of {count} samples", offset=len(data))


@_names_file
def read_pgm(path) -> GridImage:
    with open(path, "rb") as fh:
        data = fh.read()
    head = _HEADER.match(data)
    fields = []  # magic, width, height, maxval, checked in file order
    for group, what in enumerate(("magic", "width", "height", "maxval"), start=1):
        token, offset = head[group], head.start(group)
        if not token:
            raise ParseError("unexpected end of header", offset=offset)
        if group == 1 and token not in (b"P2", b"P5"):
            raise ParseError(f"not a PGM file (magic {token!r})", offset=0)
        try:
            fields.append(int(token) if group > 1 else token)
        except ValueError:
            raise ParseError(f"{what} is not an integer: {token!r}", offset=offset) from None
    magic, width, height, maxval = fields
    pos = head.end()
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height}", offset=pos)
    if maxval != MAXVAL:
        raise ParseError(f"unsupported maxval {maxval}, only {MAXVAL}", offset=pos)

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the payload
        if not data[pos : pos + 1].isspace():
            raise ParseError("missing separator before binary payload", offset=pos)
        payload = data[pos + 1 : pos + 1 + count]
        if len(payload) < count:
            raise ParseError(f"short payload: {len(payload)} of {count} bytes", offset=len(data))
        samples = np.frombuffer(payload, dtype=np.uint8)
    else:
        body = data[pos:]
        if b"#" in body:
            body = _COMMENT.sub(b"", body)
        samples = _scan_samples(body, count)
        if samples is None:  # the token path, which reads every form int() takes and names errors
            tokens = body.split()
            # count the samples against the header before allocating their array
            if len(tokens) >= count:
                with contextlib.suppress(ValueError, OverflowError):
                    samples = np.array(tokens[:count], dtype=np.int64)
            if samples is None or samples.min() < 0 or samples.max() > MAXVAL:
                raise _bad_sample(data, pos, count, len(tokens))
    # every sample is in 0..MAXVAL, so every pixel is 0 or a normal float in [1/255, 1]
    return _unchecked(GridImage, samples.reshape(height, width) / MAXVAL)


def _quantize(pixels: np.ndarray) -> np.ndarray:
    # round-half-up keeps the quantization deterministic across platforms
    return np.floor(pixels * MAXVAL + 0.5).astype(np.uint8)


def write_pgm(path, img: GridImage, binary: bool = True) -> None:
    """Write P5 (default) or P2 ASCII."""
    bytes_ = _quantize(img.pixels)
    if binary:
        header = f"P5\n{img.cols} {img.rows}\n{MAXVAL}\n".encode("ascii")
        with open(path, "wb") as fh:
            fh.write(header + bytes_.tobytes())
    else:
        lines = [f"P2\n{img.cols} {img.rows}\n{MAXVAL}"]
        lines.extend(" ".join(map(str, row)) for row in bytes_.tolist())
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
