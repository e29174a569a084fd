"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

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
from qimg.quantale import TINY

ALL_FAMILIES = (GOEDEL, PRODUCT, LUKASIEWICZ, BOOLEAN)
REAL_FAMILIES = (GOEDEL, PRODUCT, LUKASIEWICZ)

TOL = 1e-12

# 1 and 1 - ulp meet inside one level; TINY is the smallest value kept
ADVERSARIAL = (0.0, TINY, 0.3, 0.5, 1.0 - 2.0**-53, 1.0)

LEVEL_RANK = {"general": 0, "normal": 1, "strong": 2, "orthonormal": 3}


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
        if not all(vals[eps[y], y] == 1.0 for y in range(ny)):
            continue
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
    weights = np.array([v for _, v in se.items()])
    if not (np.isin(weights, (0.0, 1.0)).all() and np.isin(img.pixels, (0.0, 1.0)).all()):
        raise DomainError("set-morphology oracles need binary inputs")
    points = {(r, c) for r, c in zip(*np.nonzero(img.pixels))}
    support = {d for d, v in se.items() if v == 1.0}
    return points, support


# --- the per-offset windowed morphology, as the level-fold operators' reference ---------

def _shifted(pixels: np.ndarray, dy: int, dx: int, padding: str) -> np.ndarray:
    """Array T with T[r, c] = pixels[r - dy, c - dx], padded per policy."""
    rows, cols = pixels.shape
    py, px = abs(dy), abs(dx)
    if py == 0 and px == 0:
        return pixels
    if padding == "replicate":
        padded = np.pad(pixels, ((py, py), (px, px)), mode="edge")
    else:
        fill = 0.0 if padding == "zero" else 1.0
        padded = np.pad(pixels, ((py, py), (px, px)), mode="constant", constant_values=fill)
    return padded[py - dy : py - dy + rows, px - dx : px - dx + cols]


def dilate_per_offset(se, img: GridImage, cfg) -> np.ndarray:
    """One padded copy and one mul per offset, joined in element order."""
    out = np.zeros(img.shape)
    for (dy, dx), v in se.items():
        contrib = cfg.q._mul(v, _shifted(img.pixels, dy, dx, cfg.padding))
        np.maximum(out, contrib, out=out)
    return out


def erode_per_offset(se, img: GridImage, cfg) -> np.ndarray:
    """One padded copy and one residuum per nonzero offset, met in element order."""
    out = np.ones(img.shape)
    for (dy, dx), v in se.items():
        if v == 0.0:
            continue
        contrib = cfg.q._residuum(v, _shifted(img.pixels, -dy, -dx, cfg.padding))
        np.minimum(out, contrib, out=out)
    return out


def custom_codebook(q, values, image_shape, code_shape) -> Codebook:
    """Wrap caller-supplied kernel entries as a codebook."""
    m, n = image_shape
    a, b = code_shape
    kernel = Kernel(q, IndexSet(m * n, (m, n)), IndexSet(a * b, (a, b)), values)
    return Codebook(kernel)


# --- dense references for the sparse kernel core ------------------------------------
#
# A Kernel stores only its nonzero entries; these evaluate the defining
# formulas over the whole |X| x |Y| matrix, as the dense implementation did.

def forward_dense(p: Kernel, f: ModuleElement) -> np.ndarray:
    return p.q._mul(f.values[:, None], p.values).max(axis=0)


def inverse_dense(p: Kernel, g: ModuleElement) -> np.ndarray:
    return p.q._residuum(p.values, g.values[None, :]).min(axis=1)


def compose_dense(p1: Kernel, p2: Kernel) -> np.ndarray:
    vals = p1.q._mul(p1.values[:, :, None], p2.values[None, :, :]).max(axis=1)
    # a kernel stores weights below the smallest normal float as 0
    return np.where(vals < TINY, 0.0, vals)


def is_orthogonal_dense(p: Kernel) -> bool:
    """Every pair of distinct nonzero entries of every row, multiplied out."""
    for row in p.values:
        nz = row[row != 0.0]
        prods = p.q._mul(nz[:, None], nz[None, :])[~np.eye(nz.size, dtype=bool)]
        if np.any(prods != 0.0):
            return False
    return True


def _nodes(length: int, count: int) -> list[int]:
    """count node positions spread over 0..length-1, rounded half-up."""
    step = (length - 1) / (count - 1)
    return [math.floor(h * step + 0.5) for h in range(count)]


def _hat_profiles(length: int, nodes: list[int]) -> np.ndarray:
    """One triangular bump per node: 1 at its node, 0 at the neighbouring ones."""
    count = len(nodes)
    profiles = np.zeros((count, length))
    i = np.arange(length)
    for h in range(count):
        node = nodes[h]
        if h > 0:
            left = nodes[h - 1]
            rising = (i > left) & (i <= node)
            profiles[h, rising] = (i[rising] - left) / (node - left)
        if h < count - 1:
            right = nodes[h + 1]
            falling = (i >= node) & (i < right)
            profiles[h, falling] = (right - i[falling]) / (right - node)
        profiles[h, node] = 1.0
    return profiles


def triangular_values_dense(m: int, n: int, a: int, b: int) -> np.ndarray:
    rows = _hat_profiles(m, _nodes(m, a))
    cols = _hat_profiles(n, _nodes(n, b))
    return np.einsum("hi,kj->ijhk", rows, cols).reshape(m * n, a * b)


def block_values_dense(m: int, n: int, a: int, b: int) -> np.ndarray:
    row_edges = [m * h // a for h in range(a + 1)]
    col_edges = [n * k // b for k in range(b + 1)]
    values = np.zeros((m, n, a, b))
    for h in range(a):
        r0, r1 = row_edges[h], row_edges[h + 1]
        rc = (r0 + r1 - 1) // 2
        rext = max(rc - r0, r1 - 1 - rc)
        for k in range(b):
            c0, c1 = col_edges[k], col_edges[k + 1]
            cc = (c0 + c1 - 1) // 2
            cext = max(cc - c0, c1 - 1 - cc)
            ri = np.arange(r0, r1)
            ci = np.arange(c0, c1)
            dr = np.abs(ri - rc) / rext if rext else np.zeros(len(ri))
            dc = np.abs(ci - cc) / cext if cext else np.zeros(len(ci))
            w = 0.2 + 0.8 * (1.0 - np.maximum(dr[:, None], dc[None, :]))
            w[rc - r0, cc - c0] = 1.0
            values[r0:r1, c0:c1, h, k] = w
    return values.reshape(m * n, a * b)


def toeplitz_values_dense(se, rows: int, cols: int) -> np.ndarray:
    size = rows * cols
    values = np.zeros((size, size))
    for (dy, dx), v in se.items():
        for r in range(max(0, -dy), min(rows, rows - dy)):
            c0, c1 = max(0, -dx), min(cols, cols - dx)
            if c0 >= c1:
                continue
            x = r * cols + np.arange(c0, c1)
            y = (r + dy) * cols + np.arange(c0, c1) + dx
            values[x, y] = v
    return values


def epsilon_dense(p: Kernel):
    """The witness classify reports, found on the dense matrix.

    Strong: each column takes the first (lowest) strong row whose unit sits
    there.  Otherwise a depth-first augmenting-path matching over the unit
    entries, columns in order and each column's rows in ascending x, as
    the matcher runs; None if some column goes unmatched.
    """
    vals = p.values
    nx, ny = vals.shape
    strong = [x for x in range(nx) if np.count_nonzero(vals[x]) == 1 and vals[x].max() == 1.0]
    first = {}
    for x in strong:
        first.setdefault(int(np.argmax(vals[x])), x)
    if len(first) == ny:
        return tuple(first[y] for y in range(ny))
    adj = [[x for x in range(nx) if vals[x, y] == 1.0] for y in range(ny)]
    match_x: dict[int, int] = {}

    def augment(y, seen):
        for x in adj[y]:
            if x not in seen:
                seen.add(x)
                if x not in match_x or augment(match_x[x], seen):
                    match_x[x] = y
                    return True
        return False

    for y in range(ny):
        if not augment(y, set()):
            return None
    return tuple(sorted(match_x, key=match_x.get))
