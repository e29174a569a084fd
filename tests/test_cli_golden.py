"""Golden CLI output: one SHA-256 over what `qimg.cli.main` makes of fixed files.

The inputs are fixed rational rasters written as P2 and P5 files, and a
QSEL file of k/8 cone weights, with no random numbers, so the digest
depends only on the program.  It covers each command's exit code, its
stdout and the bytes of every file it writes:

- `dilate`, `erode`, `open` and `close` in all four families, the Boolean
  family on a thresholded raster (and once on a grey one, which exits 2);
- `gen-codebook`, then `compress`, `reconstruct`, `metrics` and `classify`
  with that codebook, for both builders and the three real families.

Every path is relative to the working directory, so stdout names no
temporary directory.  A change that claims the same CLI results must leave
the digest as it is.
"""

import hashlib

import numpy as np

from qimg import GridImage, StructuringElement, cli, write_pgm, write_sel
from qimg.morphology import PADDINGS

GOLDEN = "684fe486687e9e5069d3b4b022b24e66ec77986674103d5ecec8c3e807dbe735"

REAL = ("goedel", "lukasiewicz", "product")


def _raster(rows: int, cols: int) -> np.ndarray:
    i, j = np.indices((rows, cols))
    return ((i * 37 + j * 101) % 256) / 255


def _write_inputs() -> None:
    grey = _raster(37, 29)
    write_pgm("grey.pgm", GridImage(grey), binary=False)
    write_pgm("grey5.pgm", GridImage(grey))
    write_pgm("binary.pgm", GridImage((grey >= 0.5).astype(float)))
    write_pgm("image.pgm", GridImage(_raster(24, 20)), binary=False)
    cone = {(dy, dx): (8 - 2 * (abs(dy) + abs(dx))) / 8
            for dy in range(-3, 4) for dx in range(-3, 4) if abs(dy) + abs(dx) <= 3}
    write_sel("cone.qsel", StructuringElement(cone))
    write_sel("flatcone.qsel", StructuringElement({d: 1.0 for d in cone}))


def _commands():
    for family in REAL + ("boolean",):
        for k, op in enumerate(("dilate", "erode", "open", "close")):
            for j, se in enumerate(("cross3", "disk5", "cone.qsel")):
                padding = PADDINGS[(k + j) % 3]
                if family == "boolean":
                    image, se = "binary.pgm", se.replace("cone", "flatcone")
                else:
                    image = ("grey.pgm", "grey5.pgm")[(k + j) % 2]
                out = f"{op}-{family}-{j}.pgm"
                yield [op, "--se", se, "--quantale", family, "--pad", padding, image, out], out
    yield ["dilate", "--se", "cross3", "--quantale", "boolean", "grey.pgm", "refused.pgm"], None
    for family in REAL:
        for builder in ("triangular", "block"):
            book = f"{builder}-{family}.qcb"
            yield ["gen-codebook", "--builder", builder, "--size", "24x20", "--codes", "6x5",
                   "--quantale", family, "--out", book], book
            small, back = f"{builder}-{family}-small.pgm", f"{builder}-{family}-back.pgm"
            yield ["compress", "--codebook", book, "image.pgm", small], small
            yield ["reconstruct", "--codebook", book, small, back], back
            yield ["metrics", "image.pgm", back], None
            yield ["classify", "--kernel", book], None


def test_cli_commands_match_the_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_inputs()
    h = hashlib.sha256()
    for argv, out in _commands():
        code = cli.main(argv)
        stdout = capsys.readouterr().out
        h.update(f"{' '.join(argv)}\nexit {code}\n{stdout}".encode())
        if out is not None:
            h.update((tmp_path / out).read_bytes() if code == 0 else b"no file\n")
    assert h.hexdigest() == GOLDEN
