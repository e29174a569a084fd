"""The benchmark's tooling still runs against the program: its tracer and its own checks."""

from pathlib import Path

import qimg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    try:
        assert tracer.install(qimg) == []
    finally:
        tracer.uninstall()


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
