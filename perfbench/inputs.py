"""Seeded input generators and minimal file writers for the benchmark.

Every input is a pure function of (seed, op index), so the same seed gives
the same inputs on any commit.  Files are written with the benchmark's own
writers, so the program under test only ever reads them.
"""

from __future__ import annotations

import numpy as np

FAMILIES = ("goedel", "product", "lukasiewicz")


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def smooth_image(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Gradient plus oriented texture plus noise, clipped to [0, 1].

    Amplitudes are fixed and frequencies drawn from a narrow band, so the
    reconstruction error (and with it PSNR) varies little between seeds.
    """
    y = np.linspace(0.0, 1.0, rows)[:, None]
    x = np.linspace(0.0, 1.0, cols)[None, :]
    angle = rng.uniform(0.0, 2.0 * np.pi)
    ramp = np.cos(angle) * y + np.sin(angle) * x
    ramp = (ramp - ramp.min()) / (ramp.max() - ramp.min())
    base = 0.2 + 0.5 * ramp
    fy, fx = rng.uniform(3.0, 5.0, 2)
    phase = rng.uniform(0.0, 2.0 * np.pi, 2)
    texture = 0.08 * np.sin(2 * np.pi * fy * y + phase[0]) * np.cos(2 * np.pi * fx * x + phase[1])
    noise = rng.normal(0.0, 0.03, (rows, cols))
    return np.clip(base + texture + noise, 0.0, 1.0)


def binary_image(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Threshold a smooth image at its median: blobs with noisy edges."""
    img = smooth_image(rng, rows, cols)
    return (img > np.median(img)).astype(float)


def cone_weights(radius: int = 3) -> dict[tuple[int, int], float]:
    """A fuzzy (2r+1)^2 cone: 1 at the origin, falling with distance.

    The four corners lie past the cone's foot and keep weight 0, which
    exercises the zero-weight entries of a structuring element.
    """
    foot = radius + 1.0
    return {
        (dy, dx): max(0.0, 1.0 - float(np.hypot(dy, dx)) / foot)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
    }


def to_bytes(pixels: np.ndarray) -> np.ndarray:
    return np.floor(pixels * 255 + 0.5).astype(np.uint8)


def write_pgm(path, pixels: np.ndarray, binary: bool = True) -> None:
    """P5 (binary) or P2 (ASCII) greymap with maxval 255."""
    raw = to_bytes(pixels)
    rows, cols = raw.shape
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii") + raw.tobytes())
    else:
        body = "\n".join(" ".join(map(str, row)) for row in raw.tolist())
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"P2\n{cols} {rows}\n255\n{body}\n")


def chain_kernel_rows(n: int) -> list[list[float]]:
    """A valid n x n Goedel kernel whose matching needs one long augmenting path.

    Column y < n-1 has units at rows y and y+1; the last column has its
    only unit at row 0.  A greedy matcher gives each column its first
    candidate, so the last column must re-route every earlier match.  The
    kernel is normal (y -> y+1, n-1 -> 0 is a witness) but not strong.
    """
    rows = [[0.0] * n for _ in range(n)]
    for y in range(n - 1):
        rows[y][y] = 1.0
        rows[y + 1][y] = 1.0
    rows[0][n - 1] = 1.0
    return rows


def write_qkernel(path, family: str, rows: list[list[float]]) -> None:
    nx, ny = len(rows), len(rows[0])
    lines = ["QKERNEL 1", f"{family} {nx} {ny}"]
    lines.extend(" ".join(repr(v) for v in row) for row in rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
