"""The benchmark tracer still finds every function it wraps."""

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
