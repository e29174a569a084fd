"""The three workloads: codec, morph and cli.

Each workload is a fixed cycle of ops.  ``prepare`` makes an op's inputs
from the seed (untimed), ``run`` is the timed op, and ``check`` validates
its output (untimed) and returns a failure reason or None.  The runner
always completes whole cycles, so every run, on every commit, executes the
same mix of ops whatever the speed.

The op kinds of a cycle (its positions) have clearly separated latencies,
so a percentile of the pooled latencies that falls between two kinds reads
the extremes of both and jumps from run to run.  ``tail_kind`` therefore
places the tail percentile at the centre of one kind's band (the kinds
ranked by latency): percentile 100 * (tail_kind - 0.5) / cycle.  It is
fixed per workload, as high as every run at the defining commit allowed
while keeping at least ten samples beyond it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re

import numpy as np

from inputs import (
    FAMILIES,
    binary_image,
    chain_kernel_rows,
    cone_weights,
    rng_for,
    smooth_image,
    write_pgm,
    write_qkernel,
)

TOL = 1e-12  # the comparison tolerance the acceptance tests use


def _psnr(mse: float) -> float:
    return 10.0 * math.log10(1.0 / mse)


class Workload:
    """Defaults for the hooks a workload may leave out."""

    def __init__(self, qimg, seed: int, workdir: str, tracer=None):
        self.qimg, self.seed, self.dir, self.tracer = qimg, seed, workdir, tracer

    def setup(self) -> list[str]:
        """The program's set-up before the first op; returns failed set-up checks."""
        return []

    def known_defect(self, i: int, problem: str) -> bool:
        return False

    def extra(self) -> dict:
        return {}


class Codec(Workload):
    """Compress then reconstruct one fresh 128^2 image per op.

    Cycles round-robin over six 128^2 -> 32^2 codebooks: triangular and
    block, each for goedel, product and lukasiewicz.
    """

    name = "codec"
    cycle = 6
    tail_kind = 5
    size, codes = 128, 32

    def __init__(self, *args):
        super().__init__(*args)
        self.codebooks = []
        self.psnrs: list[float] = []

    def setup(self) -> list[str]:
        """Build and classify the six codebooks, as the README quick start does."""
        q = self.qimg
        self.codebooks = []  # release the previous set before building the next
        problems, self.levels = [], []
        for builder, want in ((q.build_triangular_codebook, ("strong", "orthonormal")),
                              (q.build_block_codebook, ("orthonormal",))):
            for family in FAMILIES:
                cb = builder(q.quantale(family), self.size, self.size, self.codes, self.codes)
                level = q.classify(cb.kernel).level.value
                self.levels.append(f"{cb.builder}/{family}:{level}")
                if level not in want:
                    problems.append(f"{cb.builder}/{family} classified {level}")
                self.codebooks.append(cb)
        return problems

    def label(self, i: int) -> str:
        cb = self.codebooks[i % self.cycle]
        return f"{cb.builder}/{cb.kernel.q.family}"

    def prepare(self, i: int):
        return smooth_image(rng_for(self.seed, i), self.size, self.size)

    def run(self, i: int, pixels):
        cb = self.codebooks[i % self.cycle]
        small = self.qimg.compress(cb, self.qimg.GridImage(pixels))
        return small, self.qimg.reconstruct(cb, small)

    def check(self, i: int, pixels, out):
        small, back = out
        cb = self.codebooks[i % self.cycle]
        if not np.all(pixels <= back.pixels + TOL):
            return "reconstruction does not dominate the input"
        if cb.builder == "triangular":
            again = self.qimg.compress(cb, back).pixels
            if not np.all(np.abs(again - small.pixels) <= TOL):
                return "triangular coder is not a right inverse"
        self.psnrs.append(_psnr(float(np.mean((back.pixels - pixels) ** 2))))
        return None

    def psnr_db(self) -> float:
        return float(np.mean(self.psnrs))

    def extra(self) -> dict:
        return {"classification": self.levels}


class Morph(Workload):
    """One windowed morphology op per fresh 512^2 raster.

    The 36-op cycle walks every (element, family, padding) triple once,
    padding fastest and element slowest; the op kind is the op index mod 4.
    The boolean family runs on thresholded rasters with binary elements.
    """

    name = "morph"
    cycle = 36
    tail_kind = 33
    size = 512
    paddings = ("zero", "one", "replicate")
    families = FAMILIES + ("boolean",)
    ops = ("dilate", "erode", "opening", "closing")
    crop = 40  # side of the boolean oracle's window, centred in the raster

    def __init__(self, *args):
        super().__init__(*args)
        self.mses: list[float] = []

    def setup(self) -> list[str]:
        q = self.qimg
        cone = cone_weights()
        fuzzy = [q.preset("cross3"), q.preset("disk5"), q.StructuringElement(cone)]
        binary = fuzzy[:2] + [q.StructuringElement({d: float(v > 0.0) for d, v in cone.items()})]
        self.elements = {"fuzzy": fuzzy, "boolean": binary}
        self.configs = {(f, p): q.MorphConfig(q.quantale(f), p)
                        for f in self.families for p in self.paddings}
        return []

    def _plan(self, i: int):
        k = i % self.cycle
        family = self.families[(k // 3) % 4]
        se_index = k // 12
        elements = self.elements["boolean" if family == "boolean" else "fuzzy"]
        return self.ops[i % 4], se_index, elements[se_index], family, self.paddings[k % 3]

    def label(self, i: int) -> str:
        op, se_index, _, family, padding = self._plan(i)
        return f"{op}/{('cross3', 'disk5', 'cone7')[se_index]}/{family}/{padding}"

    def prepare(self, i: int):
        family = self._plan(i)[3]
        make = binary_image if family == "boolean" else smooth_image
        return make(rng_for(self.seed, i), self.size, self.size)

    def run(self, i: int, pixels):
        op, _, se, family, padding = self._plan(i)
        fn = getattr(self.qimg, op)
        return fn(se, self.qimg.GridImage(pixels), self.configs[family, padding])

    def check(self, i: int, pixels, out):
        op, _, se, family, padding = self._plan(i)
        got = out.pixels
        r = max(max(abs(dy), abs(dx)) for (dy, dx), _ in se.items())
        inner = np.s_[2 * r:-2 * r, 2 * r:-2 * r]
        # every element here has weight 1 at the origin, so dilation is
        # extensive and erosion anti-extensive under every padding
        if op == "dilate" and not np.all(got >= pixels - TOL):
            return "dilation below the input"
        if op == "erode" and not np.all(got <= pixels + TOL):
            return "erosion above the input"
        if op == "opening":
            region = np.s_[:, :] if padding == "zero" else inner
            if not np.all(got[region] <= pixels[region] + TOL):
                return "opening above the input"
        if op == "closing" and not np.all(got[inner] >= pixels[inner] - TOL):
            # spill past the frame is clipped, so the law holds 2r inside it
            return "closing below the input"
        if family == "boolean":
            problem = self._check_sets(op, se, pixels, got, r)
            if problem:
                return problem
        self.mses.append(float(np.mean((got - pixels) ** 2)))
        return None

    def _check_sets(self, op, se, pixels, got, r):
        """Compare with literal set morphology on a window away from the frame."""
        c0 = (self.size - self.crop) // 2
        window = np.s_[c0:c0 + self.crop, c0:c0 + self.crop]
        points = {(int(y), int(x)) for y, x in zip(*np.nonzero(pixels[window]))}
        support = [d for d, v in se.items() if v == 1.0]
        dil = lambda pts: {(y + dy, x + dx) for (y, x) in pts for (dy, dx) in support}
        ero = lambda pts: {(y, x) for y in range(self.crop) for x in range(self.crop)
                           if all((y + dy, x + dx) in pts for (dy, dx) in support)}
        want = {"dilate": dil, "erode": ero,
                "opening": lambda p: dil(ero(p)), "closing": lambda p: ero(dil(p))}[op](points)
        m = r if op in ("dilate", "erode") else 2 * r
        for y in range(m, self.crop - m):
            for x in range(m, self.crop - m):
                if (got[c0 + y, c0 + x] == 1.0) != ((y, x) in want):
                    return "boolean op differs from set morphology"
        return None

    def psnr_db(self) -> float:
        return _psnr(float(np.mean(self.mses)))


class Cli(Workload):
    """In-process calls to qimg.cli.main on files in a work directory.

    The 16-command cycle: for the triangular and then the block builder,
    gen-codebook 64^2 -> 16^2 and compress, reconstruct, metrics and
    classify with that codebook; dilate and open on a 256^2 P2 and a 256^2
    P5 image; compress of a 128^2 image with the 64^2 codebook (exit 2);
    classify of a valid 1100-row chain kernel.  Families rotate by cycle.
    """

    name = "cli"
    cycle = 16
    tail_kind = 13
    chain_rows = 1100

    def __init__(self, *args):
        super().__init__(*args)
        self.psnrs: list[float] = []
        self.codebook_bytes: list[int] = []
        self.chain = self._path("chain.qk")
        write_qkernel(self.chain, "goedel", chain_kernel_rows(self.chain_rows))

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _plan(self, i: int):
        """(argv, expected exit code, allowed first lines of stdout or None)."""
        c, k = divmod(i, self.cycle)
        p = self._path
        if k < 10:
            builder = ("triangular", "block")[k // 5]
            family = FAMILIES[(c + k // 5) % 3]
            cb = p(f"{builder}.qk")
            small, back = p(f"{builder}-small.pgm"), p(f"{builder}-back.pgm")
            levels = ("orthonormal",) if builder == "block" else ("strong", "orthonormal")
            return [
                (["gen-codebook", "--builder", builder, "--size", "64x64", "--codes", "16x16",
                  "--quantale", family, "--out", cb], 0, None),
                (["compress", "--codebook", cb, p("img64.pgm"), small], 0, None),
                (["reconstruct", "--codebook", cb, small, back], 0, None),
                (["metrics", p("img64.pgm"), back], 0, None),
                (["classify", "--kernel", cb], 0, levels),
            ][k % 5]
        family = FAMILIES[c % 3]
        return [
            (["dilate", "--se", "disk5", "--quantale", family, p("img256-p2.pgm"), p("out.pgm")], 0, None),
            (["open", "--se", "cross3", "--quantale", family, p("img256-p2.pgm"), p("out.pgm")], 0, None),
            (["dilate", "--se", "disk5", "--quantale", family, p("img256-p5.pgm"), p("out.pgm")], 0, None),
            (["open", "--se", "cross3", "--quantale", family, p("img256-p5.pgm"), p("out.pgm")], 0, None),
            (["compress", "--codebook", p("block.qk"), p("img128.pgm"), p("out.pgm")], 2, None),
            (["classify", "--kernel", self.chain], 0, ("normal",)),
        ][k - 10]

    def label(self, i: int) -> str:
        argv = self._plan(i)[0]
        k = i % self.cycle
        tag = {14: "/mismatch", 15: "/chain"}.get(k, "")
        return f"{argv[0]}{tag}"

    def prepare(self, i: int):
        if i % self.cycle == 0:
            rng = rng_for(self.seed, i // self.cycle)
            write_pgm(self._path("img64.pgm"), smooth_image(rng, 64, 64))
            write_pgm(self._path("img128.pgm"), smooth_image(rng, 128, 128))
            write_pgm(self._path("img256-p2.pgm"), smooth_image(rng, 256, 256), binary=False)
            write_pgm(self._path("img256-p5.pgm"), smooth_image(rng, 256, 256))
        return self._plan(i)

    def run(self, i: int, plan):
        argv = plan[0]
        out = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer and self.tracer.active \
            else contextlib.nullcontext([None] * 6)
        with span as rec, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = self.qimg.cli.main(argv)
            rec[5] = rc != 0
        return rc, out.getvalue()

    def check(self, i: int, plan, out):
        argv, want_rc, want_first = plan
        rc, text = out
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        lines = text.splitlines()
        if want_first is not None and (not lines or lines[0] not in want_first):
            return f"printed {lines[:1]}, expected one of {want_first}"
        if argv[0] == "gen-codebook":
            self.codebook_bytes.append(os.path.getsize(argv[-1]))
        if argv[0] == "metrics":
            found = re.search(r"psnr ([0-9.]+)", text)
            if not found:
                return "metrics printed no finite psnr"
            self.psnrs.append(float(found.group(1)))
        return None

    def known_defect(self, i: int, problem: str) -> bool:
        # ROADMAP item 5: the recursive matcher overflows on this valid kernel
        return i % self.cycle == 15 and problem == "RecursionError"

    def psnr_db(self) -> float:
        return float(np.mean(self.psnrs))

    def extra(self) -> dict:
        return {"codebook_file_bytes": float(np.mean(self.codebook_bytes)) if self.codebook_bytes else 0.0}


WORKLOADS = {w.name: w for w in (Codec, Morph, Cli)}
