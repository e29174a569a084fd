"""Carrier values are checked once, where they enter the program."""

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import qimg
from qimg import (
    BOOLEAN,
    GOEDEL,
    DomainError,
    GridImage,
    IndexSet,
    Kernel,
    ModuleElement,
    MorphConfig,
    ParseError,
    Quantale,
    StructuringElement,
    build_triangular_codebook,
    compress,
    dilate,
    erode,
    forward,
    inverse,
    read_kernel,
    read_sel,
    reconstruct,
)
from support import ALL_FAMILIES, REAL_FAMILIES


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


BOUNDARIES = {
    "GridImage": (DomainError, lambda v, tmp: GridImage([[0.5, v]])),
    "ModuleElement": (DomainError, lambda v, tmp: ModuleElement(IndexSet(2), [0.5, v])),
    "Kernel": (
        DomainError,
        lambda v, tmp: Kernel(GOEDEL, IndexSet(2), IndexSet(1), [[0.5], [v]]),
    ),
    "StructuringElement": (
        DomainError,
        lambda v, tmp: StructuringElement({(0, 0): 1.0, (0, 1): v}),
    ),
    "read_kernel": (
        ParseError,
        lambda v, tmp: read_kernel(_write(tmp, "k.qk", f"QKERNEL 1\ngoedel 2 1\n0.5\n{v!r}\n")),
    ),
    "read_sel": (
        ParseError,
        lambda v, tmp: read_sel(_write(tmp, "s.qsel", f"QSEL 1\n0 0 1.0\n0 1 {v!r}\n")),
    ),
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")], ids=["negative", "above", "nan"])
def test_every_boundary_rejects_values_outside_the_unit_interval(tmp_path, boundary, bad):
    error, build = BOUNDARIES[boundary]
    with pytest.raises(error):
        build(bad, tmp_path)


@pytest.fixture
def count_checks(monkeypatch):
    """Count Quantale.check calls, in every family that defines its own."""
    calls = []
    for cls in {Quantale, *(type(q) for q in ALL_FAMILIES)}:
        if "check" in vars(cls):
            original = vars(cls)["check"]

            def counted(self, x, _original=original):
                calls.append(self.family)
                return _original(self, x)

            monkeypatch.setattr(cls, "check", counted)
    return calls


def test_operators_do_not_recheck_validated_inputs(count_checks):
    rng = np.random.default_rng(5)
    img = GridImage(rng.uniform(0, 1, (8, 8)))
    binary = GridImage(rng.integers(0, 2, (8, 8)).astype(float))
    se = StructuringElement({(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0})
    codebooks = [build_triangular_codebook(q, 8, 8, 3, 3) for q in REAL_FAMILIES]
    count_checks.clear()

    for cb in codebooks:
        small = compress(cb, img)
        reconstruct(cb, small)
        inverse(cb.kernel, forward(cb.kernel, img.element()))
    for q in ALL_FAMILIES:
        src = binary if q is BOOLEAN else img
        cfg = MorphConfig(q, padding="replicate")
        erode(se, dilate(se, src, cfg), cfg)
    assert count_checks == []


def test_public_mul_scans_each_operand_once(monkeypatch):
    module = importlib.import_module("qimg.quantale")
    calls = []
    original = module.require_unit

    def counted(arr, what):
        calls.append(what)
        return original(arr, what)

    monkeypatch.setattr(module, "require_unit", counted)
    GOEDEL.mul(np.full(5, 0.25), np.full(5, 0.75))
    assert len(calls) == 2


def test_grid_and_module_views_share_memory():
    img = GridImage(np.random.default_rng(6).uniform(0, 1, (4, 5)))
    elem = img.element()
    assert np.shares_memory(elem.values, img.pixels)
    assert np.shares_memory(GridImage.from_element(elem).pixels, img.pixels)
    assert not elem.values.flags.writeable


def test_only_the_file_boundary_names_the_file():
    # readers raise without the path; errors._names_file adds it, once
    checked = []
    for path in sorted(Path(qimg.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.FormattedValue)
                 and any(isinstance(n, ast.Name) and n.id == "path" for n in ast.walk(node.value))]
        assert not sites, f"{path.name} lines {sites} format the path into a message"
        checked.append(path.name)
    assert {"transform.py", "compression.py", "morphology.py", "pgm.py"} <= set(checked)


def test_every_annotation_resolves():
    # each name an annotation uses is bound in its module
    resolved = []
    for info in pkgutil.iter_modules(qimg.__path__):
        module = importlib.import_module(f"qimg.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                typing.get_type_hints(obj)
                for method in vars(obj).values():
                    if inspect.isfunction(method):
                        typing.get_type_hints(method)
            elif inspect.isfunction(obj):
                typing.get_type_hints(obj)
            else:
                continue
            resolved.append(f"{info.name}.{name}")
    assert "morphology.MorphConfig" in resolved


def test_the_package_reexports_each_public_name_once():
    # qimg binds exactly what its modules list in __all__, and each name has one home
    homes = {}
    for info in pkgutil.iter_modules(qimg.__path__):
        if info.name == "cli":  # the command line is run, not imported
            continue
        for name in getattr(importlib.import_module(f"qimg.{info.name}"), "__all__", ()):
            homes.setdefault(name, []).append(info.name)
    public = {name for name, value in vars(qimg).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(public ^ set(homes)) == []
    assert {name: found for name, found in homes.items() if len(found) > 1} == {}
    assert len({home for found in homes.values() for home in found}) == 8
