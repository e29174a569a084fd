"""Command-line surface: codebook generation, compression pipelines,
morphology filters, kernel classification and fidelity metrics.

Exit codes: 0 on success, 2 on validation errors (bad flags, malformed
files, algebra domain violations), 1 on I/O failures.
"""

from __future__ import annotations

import argparse
import sys

from . import compression, morphology, pgm, transform
from .errors import DomainError, ParseError, ShapeError
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


def _load_se(name_or_path: str) -> morphology.StructuringElement:
    if name_or_path in morphology.PRESETS:
        return morphology.preset(name_or_path)
    return morphology.read_sel(name_or_path)


def cmd_gen_codebook(args) -> int:
    m, n = _parse_pair(args.size, "--size")
    a, b = _parse_pair(args.codes, "--codes")
    q = quantale(args.quantale)
    builder = {
        "triangular": compression.build_triangular_codebook,
        "block": compression.build_block_codebook,
    }[args.builder]
    cb = builder(q, m, n, a, b)
    compression.write_codebook(args.out, cb)
    print(f"wrote {args.builder} codebook {m}x{n} -> {a}x{b} ({q.family}) to {args.out}")
    return 0


def _load_codebook(args) -> compression.Codebook:
    cb = compression.read_codebook(args.codebook)
    if args.quantale is not None and args.quantale != cb.kernel.q.family:
        cb = compression.Codebook(cb.kernel.with_quantale(quantale(args.quantale)), cb.builder)
    return cb


def cmd_compress(args) -> int:
    cb = _load_codebook(args)
    img = pgm.read_pgm(args.input)
    pgm.write_pgm(args.output, compression.compress(cb, img))
    return 0


def cmd_reconstruct(args) -> int:
    cb = _load_codebook(args)
    comp = pgm.read_pgm(args.input)
    pgm.write_pgm(args.output, compression.reconstruct(cb, comp))
    return 0


def cmd_morphology(args) -> int:
    se = _load_se(args.se)
    cfg = morphology.MorphConfig(q=quantale(args.quantale), padding=args.pad)
    op = {
        "dilate": morphology.dilate,
        "erode": morphology.erode,
        "open": morphology.opening,
        "close": morphology.closing,
    }[args.command]
    img = pgm.read_pgm(args.input)
    pgm.write_pgm(args.output, op(se, img, cfg))
    return 0


def cmd_classify(args) -> int:
    kernel, _ = transform.read_kernel(args.kernel)
    result = transform.classify(kernel)
    print(result.level.value)
    if result.epsilon is not None:
        pairs = " ".join(f"{y}->{x}" for y, x in enumerate(result.epsilon))
        print(f"epsilon {pairs}")
    else:
        print("epsilon none")
    print(f"orthogonal {'true' if result.orthogonal else 'false'}")
    return 0


def cmd_metrics(args) -> int:
    a = pgm.read_pgm(args.image_a)
    b = pgm.read_pgm(args.image_b)
    print(f"mse {compression.mse(a, b):.6f}, psnr {compression.psnr(a, b):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimg",
        description="Join-product image operators over unit-interval quantales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = sorted(FAMILIES)

    p = sub.add_parser("gen-codebook", help="generate a codebook kernel file")
    p.add_argument("--builder", required=True, choices=("triangular", "block"))
    p.add_argument("--size", required=True, help="image grid, e.g. 64x64")
    p.add_argument("--codes", required=True, help="code grid, e.g. 16x16")
    p.add_argument("--quantale", default="goedel", choices=families)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_codebook)

    for name, func, blurb in (
        ("compress", cmd_compress, "compress a PGM image through a codebook"),
        ("reconstruct", cmd_reconstruct, "reconstruct a PGM image from its compression"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--codebook", required=True)
        p.add_argument("--quantale", default=None, choices=families,
                       help="override the family recorded in the codebook file")
        p.add_argument("input")
        p.add_argument("output")
        p.set_defaults(func=func)

    for name in ("dilate", "erode", "open", "close"):
        p = sub.add_parser(name, help=f"{name} a PGM image by a structuring element")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ShapeError, ParseError, ValueError) as exc:
        print(f"qimg: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qimg: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
