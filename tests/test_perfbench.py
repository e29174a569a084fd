"""The benchmark's tooling still runs against the program: its tracer and its own checks."""

from pathlib import Path

import numpy as np

import qimg
import qimg.cli  # noqa: F401  (the cli workload calls qimg.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    try:
        assert tracer.install(qimg) == []
    finally:
        tracer.uninstall()


def test_traced_cli_commands_reach_the_rebound_operations(monkeypatch, tmp_path):
    # the CLI looks each command's operation up on its module when it runs, so
    # the tracer's wrappers are the ones called
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    cb, img, small, out = (str(tmp_path / name) for name in ("cb.qk", "img.pgm", "small.pgm",
                                                             "out.pgm"))
    qimg.write_pgm(img, qimg.GridImage(np.linspace(0, 1, 256).reshape(16, 16)))
    tracer = Tracer()
    try:
        assert tracer.install(qimg) == []
        tracer.active = True
        argvs = [["gen-codebook", "--builder", "block", "--size", "16x16", "--codes", "4x4",
                  "--out", cb],
                 ["compress", "--codebook", cb, img, small],
                 ["reconstruct", "--codebook", cb, small, out]]
        argvs += [[command, "--se", "cross3", img, out]
                  for command in ("dilate", "erode", "open", "close")]
        assert [qimg.cli.main(argv) for argv in argvs] == [0] * len(argvs)
    finally:
        tracer.uninstall()
    names = {rec[0] for rec in tracer.spans}
    assert {"compression.compress", "compression.reconstruct", "morphology.dilate",
            "morphology.erode", "morphology.opening", "morphology.closing"} <= names


def test_one_codec_cycle_passes_the_benchmark_checks(monkeypatch, tmp_path):
    # set-up builds and classifies the six 128^2 -> 32^2 codebooks; each op
    # compresses and reconstructs, and check() holds the dominance and
    # right-inverse laws
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import Codec

    wl = Codec(qimg, 9001, str(tmp_path))
    assert wl.setup() == []
    failures = []
    for i in range(wl.cycle):
        pixels = wl.prepare(i)
        problem = wl.check(i, pixels, wl.run(i, pixels))
        if problem:
            failures.append(f"{wl.label(i)}: {problem}")
    assert failures == []


def test_one_morph_cycle_passes_the_benchmark_checks(monkeypatch, tmp_path):
    # the 36 ops walk every element, family and padding once; check() holds
    # the extensivity laws and, for boolean, literal set morphology
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import Morph

    wl = Morph(qimg, 9001, str(tmp_path))
    assert wl.setup() == []
    failures = []
    for i in range(wl.cycle):
        pixels = wl.prepare(i)
        problem = wl.check(i, pixels, wl.run(i, pixels))
        if problem:
            failures.append(f"{wl.label(i)}: {problem}")
    assert failures == []


def test_one_cli_cycle_passes_the_benchmark_checks(monkeypatch, tmp_path):
    # the 16 commands: both builders through gen-codebook, compress,
    # reconstruct, metrics and classify, morphology on P2 and P5 rasters,
    # a shape mismatch that must exit 2 and the chain-kernel classify
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import Cli

    wl = Cli(qimg, 9001, str(tmp_path))
    assert wl.setup() == []
    failures = []
    for i in range(wl.cycle):
        plan = wl.prepare(i)
        problem = wl.check(i, plan, wl.run(i, plan))
        if problem:
            failures.append(f"{wl.label(i)}: {problem}")
    assert failures == []
    # builder-made codebooks are stored as their parameters, not as a kernel body
    assert wl.extra()["codebook_file_bytes"] < 100


def test_the_cli_chain_file_is_read_in_place(monkeypatch, tmp_path):
    # the cli workload's chain kernel, written by the benchmark's own writer, takes
    # the uniform-rows pass: a change that loses that fast path reaches the dense
    # path's body split, which raises here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from inputs import chain_kernel_rows, write_qkernel

    def dense_path(*args):
        raise AssertionError("the chain file took the dense path")

    path = tmp_path / "chain.qk"
    write_qkernel(path, "goedel", chain_kernel_rows(1100))
    monkeypatch.setattr(qimg.formats, "_body", dense_path)
    assert qimg.classify(qimg.load_kernel(path)).level is qimg.KernelLevel.NORMAL
