"""Command-line surface: codebook generation, compression pipelines,
morphology filters, kernel classification and fidelity metrics.

Exit codes: 0 on success, 2 on validation errors (bad flags, malformed
files, algebra domain violations), 1 on I/O failures.
"""

from __future__ import annotations

import argparse
import sys

from . import compression, formats, morphology, pgm, transform
from .quantale import FAMILIES, quantale

__all__ = ["main", "build_parser"]

def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"{what} must look like ROWSxCOLS, got {text!r}")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{what} must hold integers, got {text!r}") from None
    return rows, cols


def cmd_gen_codebook(args) -> None:
    m, n = _parse_pair(args.size, "--size")
    a, b = _parse_pair(args.codes, "--codes")
    q = quantale(args.quantale)
    cb = compression._build(args.builder, q, m, n, a, b)
    compression.write_codebook(args.out, cb)
    print(f"wrote {args.builder} codebook {m}x{n} -> {a}x{b} ({q.family}) to {args.out}")


def cmd_codec(args) -> None:
    cb = compression.read_codebook(args.codebook)
    img = pgm.read_pgm(args.input)
    pgm.write_pgm(args.output, getattr(compression, args.command)(cb, img))


def cmd_morphology(args) -> None:
    se = morphology.PRESETS.get(args.se) or morphology.read_sel(args.se)
    cfg = morphology.MorphConfig(q=quantale(args.quantale), padding=args.pad)
    op = getattr(morphology, {"open": "opening", "close": "closing"}.get(args.command, args.command))
    img = pgm.read_pgm(args.input)
    pgm.write_pgm(args.output, op(se, img, cfg))


def cmd_classify(args) -> None:
    kernel = compression.load_kernel(args.kernel)
    result = transform.classify(kernel)
    print(result.level.value)
    if result.epsilon is not None:
        pairs = " ".join(f"{y}->{x}" for y, x in enumerate(result.epsilon))
        print(f"epsilon {pairs}")
    else:
        print("epsilon none")
    print(f"orthogonal {'true' if result.orthogonal else 'false'}")


def cmd_metrics(args) -> None:
    a = pgm.read_pgm(args.image_a)
    b = pgm.read_pgm(args.image_b)
    print(f"mse {compression.mse(a, b):.6f}, psnr {compression.psnr(a, b):.6f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimg",
        description="Join-product image operators over unit-interval quantales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = sorted(FAMILIES)

    p = sub.add_parser("gen-codebook", help="generate a codebook kernel file")
    p.add_argument("--builder", required=True, choices=formats.BUILDERS)
    p.add_argument("--size", required=True, help="image grid, e.g. 64x64")
    p.add_argument("--codes", required=True, help="code grid, e.g. 16x16")
    p.add_argument("--quantale", default="goedel", choices=families)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_codebook)

    # commands that take the same arguments share one subparser, and argparse
    # stores the name typed in args.command
    p = sub.add_parser("compress", aliases=["reconstruct"], prog="qimg compress|reconstruct",
                       help="compress a PGM image through a codebook, or reconstruct it"
                            " from its compression")
    p.add_argument("--codebook", required=True)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_codec)

    p = sub.add_parser("dilate", aliases=["erode", "open", "close"],
                       prog="qimg dilate|erode|open|close",
                       help="dilate, erode, open or close a PGM image by a structuring element")
    p.add_argument("--se", required=True,
                   help="QSEL file or preset: " + ", ".join(sorted(morphology.PRESETS)))
    p.add_argument("--quantale", default="goedel", choices=families)
    p.add_argument("--pad", default="zero", choices=morphology.PADDINGS)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_morphology)

    p = sub.add_parser("classify", help="classify a kernel file in the coder hierarchy")
    p.add_argument("--kernel", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("metrics", help="mse and psnr between two PGM images")
    p.add_argument("image_a")
    p.add_argument("image_b")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:  # DomainError, ShapeError and ParseError included
        print(f"qimg: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qimg: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
