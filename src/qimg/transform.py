"""Join-product transforms between free modules and their kernels.

A kernel p over X x Y induces the forward operator
``forward(p, f)(y) = max_x mul(f(x), p(x, y))`` and its adjoint
``inverse(p, g)(x) = min_y residuum(p(x, y), g(y))``.  The module also
classifies kernels along the coder hierarchy (general < coder < normal <
strong, with orthogonality tracked separately and orthonormal at the top)
and extracts the kernel of an arbitrary join-preserving map by probing it
with basis elements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ParseError, ShapeError
from .free_module import IndexSet, ModuleElement, _unchecked, delta
from .quantale import Quantale, quantale

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


@dataclass(frozen=True, eq=False)
class Kernel:
    """A map X x Y -> [0,1] tagged with the quantale its transform uses."""

    q: Quantale
    domain: IndexSet
    codomain: IndexSet
    values: np.ndarray  # shape (|X|, |Y|), row-major in x

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.shape != (self.domain.size, self.codomain.size):
            raise ShapeError(
                f"kernel values shaped {arr.shape}, expected "
                f"({self.domain.size}, {self.codomain.size})"
            )
        self.q.check(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def with_quantale(self, q: Quantale) -> "Kernel":
        """Re-tag the same entries under another family (revalidates them)."""
        return Kernel(q, self.domain, self.codomain, self.values)

    def __repr__(self) -> str:
        return f"Kernel({self.q.family}, |X|={self.domain.size}, |Y|={self.codomain.size})"


class KernelLevel(enum.Enum):
    """Tags of the kernel hierarchy."""

    GENERAL = "general"
    CODER = "coder"
    NORMAL = "normal"
    STRONG = "strong"
    ORTHONORMAL = "orthonormal"


@dataclass(frozen=True)
class KernelClass:
    level: KernelLevel
    epsilon: tuple[int, ...] | None  # epsilon[y] = x, injective, when level >= CODER
    orthogonal: bool


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeError(message)


def forward(p: Kernel, f: ModuleElement) -> ModuleElement:
    """Apply the transform with kernel p to f in Q^X."""
    _require(f.index == p.domain, f"element over {f.index} fed to kernel domain {p.domain}")
    out = p.q._mul(f.values[:, None], p.values).max(axis=0)
    return _unchecked(ModuleElement, p.codomain, out)


def inverse(p: Kernel, g: ModuleElement) -> ModuleElement:
    """Apply the inverse (residual) transform with kernel p to g in Q^Y."""
    _require(g.index == p.codomain, f"element over {g.index} fed to kernel codomain {p.codomain}")
    out = p.q._residuum(p.values, g.values[None, :]).min(axis=1)
    return _unchecked(ModuleElement, p.domain, out)


def identity_kernel(q: Quantale, index: IndexSet) -> Kernel:
    return Kernel(q, index, index, np.eye(index.size))


def compose(p1: Kernel, p2: Kernel) -> Kernel:
    """Kernel of the composite transform: forward(compose(p1,p2), f) = forward(p2, forward(p1, f))."""
    _require(p1.codomain == p2.domain, "inner index sets differ")
    _require(p1.q == p2.q, "kernels live over different quantales")
    vals = p1.q._mul(p1.values[:, :, None], p2.values[None, :, :]).max(axis=1)
    return _unchecked(Kernel, p1.q, p1.domain, p2.codomain, vals)


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
    """
    for row in p.values:
        nz = row[row != 0.0]
        if nz.size <= 1:
            continue
        prods = p.q._mul(nz[:, None], nz[None, :])
        prods = prods[~np.eye(nz.size, dtype=bool)]
        if np.any(prods != 0.0):
            return False
    return True


def _augment(y: int, adj: Sequence[Sequence[int]], match_x: dict[int, int], seen: set[int]) -> bool:
    # augmenting-path step of the maximum bipartite matching
    for x in adj[y]:
        if x in seen:
            continue
        seen.add(x)
        if x not in match_x or _augment(match_x[x], adj, match_x, seen):
            match_x[x] = y
            return True
    return False


def _perfect_matching(adj: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Match every y to a distinct x from its candidate list, or report failure."""
    match_x: dict[int, int] = {}
    for y in range(len(adj)):
        if not _augment(y, adj, match_x, set()):
            return None
    eps = [0] * len(adj)
    for x, y in match_x.items():
        eps[y] = x
    return tuple(eps)


def classify(p: Kernel) -> KernelClass:
    """Place p in the kernel hierarchy and exhibit a witnessing injection.

    Candidate rows per codomain index follow the defining clauses with
    exact comparisons against 1.0 and 0.0; an injection exists iff the
    candidate bipartite graph has a matching covering Y.
    """
    vals = p.values
    ny = p.codomain.size
    unit = vals >= 1.0  # entries never exceed 1, so this is equality with e
    nonzero_per_row = (vals != 0.0).sum(axis=1)

    coder_adj = [[int(x) for x in np.nonzero(unit[:, y])[0]] for y in range(ny)]
    normal_adj = [[int(x) for x in np.nonzero(vals[:, y] == 1.0)[0]] for y in range(ny)]
    # a strong row is unit at y and bottom everywhere else
    strong_rows = unit & (nonzero_per_row == 1)[:, None]
    strong_adj = [[int(x) for x in np.nonzero(strong_rows[:, y])[0]] for y in range(ny)]

    orthogonal = is_orthogonal(p)

    eps = _perfect_matching(strong_adj)
    if eps is not None:
        level = KernelLevel.ORTHONORMAL if orthogonal else KernelLevel.STRONG
        return KernelClass(level, eps, orthogonal)
    eps = _perfect_matching(normal_adj)
    if eps is not None:
        return KernelClass(KernelLevel.NORMAL, eps, orthogonal)
    eps = _perfect_matching(coder_adj)
    if eps is not None:
        return KernelClass(KernelLevel.CODER, eps, orthogonal)
    return KernelClass(KernelLevel.GENERAL, None, orthogonal)


# --- QKERNEL text format ---------------------------------------------------
#
#   QKERNEL 1
#   <family> <|X|> <|Y|>
#   # optional comment lines
#   |X| lines of |Y| decimal values, row-major in x

KERNEL_MAGIC = "QKERNEL 1"


def write_kernel(path, p: Kernel, comments: Sequence[str] = ()) -> None:
    lines = [KERNEL_MAGIC, f"{p.q.family} {p.domain.size} {p.codomain.size}"]
    lines.extend(f"# {c}" for c in comments)
    for row in p.values:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_kernel(path) -> tuple[Kernel, list[str]]:
    """Parse a QKERNEL file; returns the kernel and any comment lines."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != KERNEL_MAGIC:
        raise ParseError(f"{path}: missing '{KERNEL_MAGIC}' header")
    comments = []
    lines = []
    for ln in raw[1:]:
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comments.append(stripped[1:].strip())
            continue
        lines.append(stripped)
    if not lines:
        raise ParseError(f"{path}: missing size header line")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"{path}: expected '<family> <|X|> <|Y|>', got {lines[0]!r}")
    try:
        q = quantale(head[0])
        nx, ny = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if nx < 1 or ny < 1:
        raise ParseError(f"{path}: kernel sizes must be positive")
    if len(lines) - 1 != nx:
        raise ParseError(f"{path}: expected {nx} data rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != ny:
            raise ParseError(f"{path}: row {i} has {len(parts)} values, expected {ny}")
        try:
            rows.append([float(tok) for tok in parts])
        except ValueError:
            raise ParseError(f"{path}: row {i} holds a non-numeric token") from None
    try:
        kernel = Kernel(q, IndexSet(nx), IndexSet(ny), np.array(rows))
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return kernel, comments
