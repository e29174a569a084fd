"""Layer tracing from outside the program.

The tracer replaces each traced public function with a wrapper, in every
``qimg`` module that binds it (``compression`` imports ``forward`` by name,
so patching ``transform`` alone would miss those calls), and each traced
class's ``__init__``.  Wrappers record spans (name, start, end, parent,
op id) in memory plus a few work counters; self time is derived from the
spans when the run ends.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import sys
import time
import weakref
from contextlib import contextmanager

import numpy as np

# (layer, attribute path) of each traced callable, in the layer's module.
FUNCTIONS = [
    ("quantale", "Quantale.check"),
    ("quantale", "Quantale.mul"),
    ("quantale", "Quantale.residuum"),
    ("free_module", "ModuleElement"),
    ("grid", "GridImage"),
    ("transform", "Kernel"),
    ("transform", "forward"),
    ("transform", "inverse"),
    ("transform", "classify"),
    ("transform", "is_orthogonal"),
    ("transform", "read_kernel"),
    ("transform", "write_kernel"),
    ("compression", "build_triangular_codebook"),
    ("compression", "build_block_codebook"),
    ("compression", "compress"),
    ("compression", "reconstruct"),
    ("compression", "read_codebook"),
    ("compression", "write_codebook"),
    ("morphology", "dilate"),
    ("morphology", "erode"),
    ("morphology", "opening"),
    ("morphology", "closing"),
    ("pgm", "read_pgm"),
    ("pgm", "write_pgm"),
]

# CLI subcommands the workloads run; each is a span named cli.<command>.
CLI_COMMANDS = ["gen-codebook", "compress", "reconstruct", "metrics", "classify", "dilate", "open"]

COUNTERS = [
    ("quantale.check.values", "count", "lower"),
    ("quantale.check.values_per_input", "ratio", "lower"),
    ("transform.forward.entries", "count", "lower"),
    ("transform.inverse.entries", "count", "lower"),
    ("transform.kernel.nnz_ratio", "ratio", "higher"),
    ("transform.kernel.mib", "MiB", "lower"),
    ("morphology.offsets", "count", "lower"),
    ("pgm.read_pgm.bytes", "bytes", "lower"),
    ("pgm.write_pgm.bytes", "bytes", "lower"),
    ("transform.read_kernel.bytes", "bytes", "lower"),
    ("transform.write_kernel.bytes", "bytes", "lower"),
    ("compression.read_codebook.bytes", "bytes", "lower"),
    ("compression.write_codebook.bytes", "bytes", "lower"),
]

OVERHEAD = [
    ("trace.op_ms_p50", "ms", "lower"),
    ("trace.untraced_op_ms_p50", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def span_names() -> list[str]:
    names = [f"{layer}.{path.split('.')[-1]}" for layer, path in FUNCTIONS]
    return names + [f"cli.{cmd}" for cmd in CLI_COMMANDS]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                (f"{name}.fail", "count", "lower")]
    return out + COUNTERS + OVERHEAD


def _arrays(obj) -> list[np.ndarray]:
    """The numpy arrays an object stores, whatever its layout."""
    if dataclasses.is_dataclass(obj):
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        values = list(vars(obj).values())
    return [v for v in values if isinstance(v, np.ndarray)]


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, failed, tracer time]
        self.stack: list[int] = []
        self.op = None  # current op index, or "setup"
        self.active = False  # wrappers pass straight through while False
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.op_check_values = 0
        self.op_input_values = 0
        self._stored = weakref.WeakKeyDictionary()  # kernel -> (nnz, stored entries)
        self._nnz = 0  # over the kernels forward and inverse touched
        self._stored_total = 0
        self._live_kernel_bytes = 0
        self._peak_kernel_bytes = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op, False, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def add_input(self, values: int) -> None:
        if isinstance(self.op, int):
            self.op_input_values += values

    # --- counters taken at layer boundaries ------------------------------

    def _kernel_stored(self, kernel) -> tuple[int, int]:
        cached = self._stored.get(kernel)
        if cached is None:
            floats = [a for a in _arrays(kernel) if a.dtype.kind == "f"]
            cached = (sum(int(np.count_nonzero(a)) for a in floats), sum(a.size for a in floats))
            self._stored[kernel] = cached
        return cached

    def _before(self, name: str, args) -> None:
        if name == "quantale.check":
            n = int(np.size(args[1]))
            self.counts["quantale.check.values"] += n
            if isinstance(self.op, int):
                self.op_check_values += n
        elif name in ("transform.forward", "transform.inverse"):
            kernel = args[0]
            self.counts[f"{name}.entries"] += kernel.domain.size * kernel.codomain.size
            nnz, stored = self._kernel_stored(kernel)
            self._nnz += nnz
            self._stored_total += stored
        elif name == "morphology.dilate":
            self.counts["morphology.offsets"] += len(args[0].entries)
        elif name == "morphology.erode":
            # erode skips weight-0 offsets: bottom -> v is the top of the meet
            self.counts["morphology.offsets"] += sum(1 for _, v in args[0].items() if v != 0.0)
        elif name in ("pgm.read_pgm", "transform.read_kernel", "compression.read_codebook"):
            self.counts[f"{name}.bytes"] += _path_bytes(args[0])

    def _after(self, name: str, args, result) -> None:
        if name in ("pgm.write_pgm", "transform.write_kernel", "compression.write_codebook"):
            self.counts[f"{name}.bytes"] += _path_bytes(args[0])
        elif name == "pgm.read_pgm":
            self.add_input(result.pixels.size)
        elif name == "transform.read_kernel":
            kernel = result[0]
            self.add_input(kernel.domain.size * kernel.codomain.size)
        elif name == "transform.Kernel":
            size = sum(a.nbytes for a in _arrays(args[0]))
            self._live_kernel_bytes += size
            self._peak_kernel_bytes = max(self._peak_kernel_bytes, self._live_kernel_bytes)
            weakref.finalize(args[0], self._release_kernel, size)

    def _release_kernel(self, size: int) -> None:
        self._live_kernel_bytes -= size

    # --- installing wrappers ---------------------------------------------

    def _wrap(self, name: str, func):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            t0 = time.perf_counter()
            tracer._before(name, args)
            spent = time.perf_counter() - t0
            with tracer.span(name):
                result = func(*args, **kwargs)
            t1 = time.perf_counter()
            tracer._after(name, args, result)
            if tracer.stack:
                # bookkeeping (e.g. counting a kernel's nonzeros) is not the caller's work
                tracer.spans[tracer.stack[-1]][6] += spent + time.perf_counter() - t1
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> list[str]:
        """Wrap every traced callable; returns the ones the package lacks."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        missing = []
        for layer, path in FUNCTIONS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            owner_name, _, attr = path.rpartition(".")
            target = getattr(module, owner_name or attr, None)
            name = f"{layer}.{attr}"
            if target is None:
                missing.append(name)
            elif isinstance(target, type) and owner_name:
                # a method: wrap it on every class of the hierarchy that defines it
                for cls in [target, *_subclasses(target)]:
                    if attr in cls.__dict__:
                        self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
            elif isinstance(target, type):
                # a constructor: calls go through the class's __init__
                self._set(target, "__init__", self._wrap(name, target.__init__))
            else:
                wrapper = self._wrap(name, target)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            self._set(mod, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        # self time: the span minus its children and the tracer's own work in it
        busy = [rec[6] for rec in self.spans]
        for _, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                busy[parent] += end - start
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.fail"] = 0
        for i, (name, start, end, _, _, failed, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - busy[i]
            out[f"{name}.fail"] += int(failed)
        counts = dict(self.counts)
        counts["quantale.check.values_per_input"] = (
            self.op_check_values / self.op_input_values if self.op_input_values else 0.0
        )
        counts["transform.kernel.nnz_ratio"] = (
            self._nnz / self._stored_total if self._stored_total else 0.0
        )
        counts["transform.kernel.mib"] = self._peak_kernel_bytes / 2**20
        out.update(counts)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for i, (name, start, end, parent, op, failed, spent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "failed": failed,
                                     "tracer_s": spent}) + "\n")


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out
