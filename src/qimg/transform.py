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
    NORMAL = "normal"
    STRONG = "strong"
    ORTHONORMAL = "orthonormal"


@dataclass(frozen=True)
class KernelClass:
    level: KernelLevel
    epsilon: tuple[int, ...] | None  # epsilon[y] = x, injective, when level >= NORMAL
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


def _normal_witness(vals: np.ndarray) -> tuple[int, ...] | None:
    """Match every column to a distinct row holding 1 there, or report failure."""
    adj: list[list[int]] = [[] for _ in range(vals.shape[1])]
    xs, ys = np.nonzero(vals == 1.0)  # row-major, so each list ascends in x
    for x, y in zip(xs.tolist(), ys.tolist()):
        adj[y].append(x)
    match_x: dict[int, int] = {}
    for y in range(len(adj)):
        if not _augment(y, adj, match_x):
            return None
    eps = [0] * len(adj)
    for x, y in match_x.items():
        eps[y] = x
    return tuple(eps)


def _strong_witness(vals: np.ndarray) -> tuple[int, ...] | None:
    """Read a strong injection off the rows, or None if some column has none.

    A strong row is 1 at exactly one column and 0 elsewhere, so each row
    serves one column only and no search is needed: column y takes the
    first strong row whose unit sits at y.
    """
    nonzero = vals != 0.0  # argmax over bools is far cheaper than over floats
    strong = (np.count_nonzero(nonzero, axis=1) == 1) & (vals.max(axis=1) == 1.0)
    rows = np.flatnonzero(strong)
    cols, first = np.unique(nonzero.argmax(axis=1)[rows], return_index=True)
    if cols.size != vals.shape[1]:
        return None
    return tuple(rows[first].tolist())


def classify(p: Kernel) -> KernelClass:
    """Place p in the kernel hierarchy and exhibit a witnessing injection.

    The defining clauses compare exactly against 1.0 and 0.0.  Strong
    witnesses are read off the rows; a normal injection exists iff the
    unit entries hold a matching covering Y.
    """
    orthogonal = is_orthogonal(p)
    eps = _strong_witness(p.values)
    if eps is not None:
        level = KernelLevel.ORTHONORMAL if orthogonal else KernelLevel.STRONG
        return KernelClass(level, eps, orthogonal)
    eps = _normal_witness(p.values)
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


def write_kernel(path, p: Kernel, comments: Sequence[str] = ()) -> None:
    lines = [KERNEL_MAGIC, f"{p.q.family} {p.domain.size} {p.codomain.size}"]
    lines.extend(f"# {c}" for c in comments)
    # row by row, so only one row of Python floats exists at a time
    lines.extend(" ".join(map(repr, row.tolist())) for row in p.values)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path, magic: str) -> tuple[list[str], list[str]]:
    """Data lines and comment texts after the magic line, stripped; blank lines dropped."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not raw or raw[0].strip() != magic:
        raise ParseError(f"{path}: missing '{magic}' header")
    stripped = [ln.strip() for ln in raw[1:]]
    comments = [ln[1:].strip() for ln in stripped if ln.startswith("#")]
    return [ln for ln in stripped if ln and not ln.startswith("#")], comments


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


def read_kernel(path) -> tuple[Kernel, list[str]]:
    """Parse a QKERNEL file; returns the kernel and any comment lines."""
    lines, comments = _read_lines(path, KERNEL_MAGIC)
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
    rows = lines[1:]
    if len(rows) != nx:
        raise ParseError(f"{path}: expected {nx} data rows, found {len(rows)}")
    # rows is non-empty here, so loadtxt never sees (and warns on) an empty body
    try:
        values = np.loadtxt(rows, ndmin=2, comments=None)
    except ValueError:
        values = None
    if values is None or values.shape[1] != ny:
        raise ParseError(f"{path}: {_bad_row(rows, ny)}")
    try:
        kernel = Kernel(q, IndexSet(nx), IndexSet(ny), values)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return kernel, comments
