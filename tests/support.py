"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from qimg import (
    BOOLEAN,
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    Codebook,
    DomainError,
    GridImage,
    IndexSet,
    Kernel,
    ModuleElement,
)

ALL_FAMILIES = (GOEDEL, PRODUCT, LUKASIEWICZ, BOOLEAN)
REAL_FAMILIES = (GOEDEL, PRODUCT, LUKASIEWICZ)

TOL = 1e-12

LEVEL_RANK = {"general": 0, "coder": 1, "normal": 2, "strong": 3, "orthonormal": 4}


def leq(a, b, tol=TOL) -> bool:
    return bool(np.all(np.asarray(a) <= np.asarray(b) + tol))


def close(a, b, tol=TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


def unit_values(rng, shape, q):
    if q is BOOLEAN:
        return rng.integers(0, 2, size=shape).astype(float)
    return rng.uniform(0.0, 1.0, size=shape)


def random_element(rng, q, index: IndexSet) -> ModuleElement:
    return ModuleElement(index, unit_values(rng, index.size, q))


def random_kernel(rng, q, nx: int, ny: int, palette=None) -> Kernel:
    if palette is not None:
        vals = rng.choice(np.asarray(palette, dtype=float), size=(nx, ny))
    else:
        vals = unit_values(rng, (nx, ny), q)
    return Kernel(q, IndexSet(nx), IndexSet(ny), vals)


def random_strong_kernel(rng, q, nx: int, ny: int):
    """A kernel forced strong: each code row is 1 at its own column, 0 elsewhere."""
    assert nx >= ny
    vals = unit_values(rng, (nx, ny), q)
    eps = rng.choice(nx, size=ny, replace=False)
    for y, x in enumerate(eps):
        vals[x, :] = 0.0
        vals[x, y] = 1.0
    return Kernel(q, IndexSet(nx), IndexSet(ny), vals), tuple(int(x) for x in eps)


def chain_kernel(q, n: int) -> Kernel:
    """A normal, not strong, n x n kernel found by one n-step augmenting path.

    Column y < n-1 has units at rows y and y+1, the last column only at
    row 0; the witness is y -> y+1, n-1 -> 0.
    """
    vals = np.zeros((n, n))
    idx = np.arange(n - 1)
    vals[idx, idx] = vals[idx + 1, idx] = vals[0, n - 1] = 1.0
    return Kernel(q, IndexSet(n), IndexSet(n), vals)


def classify_bruteforce(p: Kernel):
    """Exhaustive-injection classification oracle for small kernels.

    Enumerates every injective map from codomain to domain indices and
    checks the defining clauses directly; independent of the matching
    search used in production.
    """
    vals = p.values
    nx, ny = vals.shape
    orthogonal = True
    for x in range(nx):
        for y1 in range(ny):
            for y2 in range(ny):
                if y1 != y2 and p.q.mul(vals[x, y1], vals[x, y2]) != 0.0:
                    orthogonal = False
    best = "general"
    for eps in itertools.permutations(range(nx), ny):
        if not all(vals[eps[y], y] >= 1.0 for y in range(ny)):
            continue
        level = "coder"
        if all(vals[eps[y], y] == 1.0 for y in range(ny)):
            level = "normal"
            if all(
                vals[eps[y1], y2] == 0.0
                for y1 in range(ny)
                for y2 in range(ny)
                if y1 != y2
            ):
                level = "strong"
        if LEVEL_RANK[level] > LEVEL_RANK[best]:
            best = level
        if best == "strong":
            break
    if best == "strong" and orthogonal:
        best = "orthonormal"
    return best, orthogonal


def witness_satisfies(p: Kernel, eps, level: str) -> bool:
    """Check the reported injection against the clauses of the reported level."""
    vals = p.values
    ny = vals.shape[1]
    if len(set(eps)) != ny:
        return False
    if level in ("coder",) and not all(vals[eps[y], y] >= 1.0 for y in range(ny)):
        return False
    if level in ("normal", "strong", "orthonormal"):
        if not all(vals[eps[y], y] == 1.0 for y in range(ny)):
            return False
    if level in ("strong", "orthonormal"):
        if not all(
            vals[eps[y1], y2] == 0.0 for y1 in range(ny) for y2 in range(ny) if y1 != y2
        ):
            return False
    return True


def shift_pixels(pixels: np.ndarray, hy: int, hx: int) -> np.ndarray:
    """Translate by (hy, hx) with zero fill: out[r, c] = pixels[r - hy, c - hx]."""
    rows, cols = pixels.shape
    out = np.zeros_like(pixels)
    rs0, rs1 = max(0, hy), min(rows, rows + hy)
    cs0, cs1 = max(0, hx), min(cols, cols + hx)
    out[rs0:rs1, cs0:cs1] = pixels[rs0 - hy : rs1 - hy, cs0 - hx : cs1 - hx]
    return out


def residuum_oracle(q, x: float, y: float, n: int) -> float:
    """Evaluate the residuum's defining supremum on an n-point grid.

    Returns max{k/n : mul(k/n, x) <= y}, which under-approximates the true
    supremum by at most 1/n.  The Boolean carrier has two elements, so
    there the sup ranges over them only.
    """
    if n < 1:
        raise ValueError("oracle grid needs n >= 1")
    q.check(y)
    zs = np.array([0.0, 1.0]) if q is BOOLEAN else np.arange(n + 1, dtype=float) / n
    ok = q.mul(zs, x) <= y
    # the t-norm is monotone in z, so the admissible set is a prefix
    return float(zs[ok].max())


def binary_brute_dilate(se, img: GridImage) -> GridImage:
    """Literal Minkowski dilation: union of the element translated to each point."""
    points, support = _as_sets(se, img)
    hits = {(r + dy, c + dx) for (r, c) in points for (dy, dx) in support}
    out = np.zeros(img.shape)
    for r, c in hits:
        if 0 <= r < img.rows and 0 <= c < img.cols:
            out[r, c] = 1.0
    return GridImage(out)


def binary_brute_erode(se, img: GridImage) -> GridImage:
    """Literal set erosion: points whose translated element stays inside the set."""
    points, support = _as_sets(se, img)
    out = np.zeros(img.shape)
    for r in range(img.rows):
        for c in range(img.cols):
            if all((r + dy, c + dx) in points for (dy, dx) in support):
                out[r, c] = 1.0
    return GridImage(out)


def _as_sets(se, img: GridImage):
    if not (se.is_binary() and img.is_binary()):
        raise DomainError("set-morphology oracles need binary inputs")
    points = {(r, c) for r, c in zip(*np.nonzero(img.pixels))}
    support = {d for d, v in se.items() if v == 1.0}
    return points, support


def custom_codebook(q, values, image_shape, code_shape) -> Codebook:
    """Wrap caller-supplied kernel entries as a codebook."""
    m, n = image_shape
    a, b = code_shape
    kernel = Kernel(q, IndexSet(m * n, (m, n)), IndexSet(a * b, (a, b)), values)
    return Codebook(kernel, "custom")
