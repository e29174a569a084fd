"""Dilation/erosion on rasters, their oracles and the Toeplitz bridge."""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from qimg import (
    BOOLEAN,
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    DomainError,
    GridImage,
    MorphConfig,
    ParseError,
    StructuringElement,
    closing,
    dilate,
    erode,
    forward,
    inverse,
    opening,
    preset,
    read_sel,
    reflect,
    toeplitz_kernel,
    write_sel,
)
from qimg import morphology
from qimg.morphology import PADDINGS, PRESETS
from support import (
    ADVERSARIAL,
    ALL_FAMILIES,
    REAL_FAMILIES,
    binary_brute_dilate,
    binary_brute_erode,
    close,
    dilate_per_offset,
    erode_per_offset,
    leq,
    shift_pixels,
    toeplitz_values_dense,
    unit_values,
)

ORIGIN = StructuringElement({(0, 0): 1.0})


def random_se(rng, q, radius=1, count=4):
    offsets = [(dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)]
    picks = rng.choice(len(offsets), size=min(count, len(offsets)), replace=False)
    if q is BOOLEAN:
        weights = rng.integers(0, 2, len(picks)).astype(float)
        weights[0] = 1.0
    else:
        weights = rng.uniform(0.0, 1.0, len(picks))
    return StructuringElement({offsets[i]: float(w) for i, w in zip(picks, weights)})


def random_binary(rng, shape, interior=0):
    px = rng.integers(0, 2, shape).astype(float)
    if interior:
        px[:interior, :] = 0.0
        px[-interior:, :] = 0.0
        px[:, :interior] = 0.0
        px[:, -interior:] = 0.0
    return GridImage(px)


# --- structuring elements --------------------------------------------------------

def test_reflect_moves_offsets():
    assert dict(reflect(ORIGIN).entries) == {(0, 0): 1.0}
    se = StructuringElement({(0, 1): 0.5})
    assert dict(reflect(se).entries) == {(0, -1): 0.5}
    mixed = StructuringElement({(1, -2): 0.25, (0, 0): 1.0, (-1, 1): 0.75})
    assert dict(reflect(reflect(mixed)).entries) == dict(mixed.entries)


def test_element_validation():
    with pytest.raises(ValueError):
        StructuringElement({})
    with pytest.raises(DomainError):
        StructuringElement({(0, 0): 1.0001})
    with pytest.raises(ValueError):
        StructuringElement({(0.5, 0): 1.0})
    for offset in ((float("inf"), 0), (0, float("nan"))):
        with pytest.raises(ValueError, match="not an integer pair"):
            StructuringElement({offset: 1.0})
    assert dict(StructuringElement({(2.0, -1): 1.0}).entries) == {(2, -1): 1.0}


def test_presets():
    assert len(preset("cross3").entries) == 5
    assert len(preset("square3").entries) == 9
    disk = preset("disk5")
    assert len(disk.entries) == 13
    assert all(dy * dy + dx * dx <= 4 for dy, dx in disk.entries)
    assert all(v == 1.0 for v in disk.entries.values())
    with pytest.raises(ValueError):
        preset("ball7")


# --- dilation and erosion ----------------------------------------------------------

@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_origin_element_is_neutral(q):
    rng = np.random.default_rng(51)
    img = random_binary(rng, (5, 6)) if q is BOOLEAN else GridImage(rng.uniform(0, 1, (5, 6)))
    cfg = MorphConfig(q)
    assert np.array_equal(dilate(ORIGIN, img, cfg).pixels, img.pixels)
    assert np.array_equal(erode(ORIGIN, img, cfg).pixels, img.pixels)
    assert np.array_equal(opening(ORIGIN, img, cfg).pixels, img.pixels)
    assert np.array_equal(closing(ORIGIN, img, cfg).pixels, img.pixels)


def test_binary_dilate_single_point():
    px = np.zeros((3, 3))
    px[1, 1] = 1.0
    se = StructuringElement({(0, 0): 1.0, (0, 1): 1.0})
    out = dilate(se, GridImage(px), MorphConfig(BOOLEAN))
    want = np.zeros((3, 3))
    want[1, 1] = want[1, 2] = 1.0
    assert np.array_equal(out.pixels, want)
    oracle = binary_brute_dilate(se, GridImage(px))
    assert np.array_equal(out.pixels, oracle.pixels)


def test_binary_erode_strip_element():
    se = StructuringElement({(0, 0): 1.0, (0, 1): 1.0})
    ones = GridImage(np.ones((3, 3)))
    out = erode(se, ones, MorphConfig(BOOLEAN, padding="zero"))
    want = np.ones((3, 3))
    want[:, 2] = 0.0
    assert np.array_equal(out.pixels, want)
    assert np.array_equal(out.pixels, binary_brute_erode(se, ones).pixels)


def test_lukasiewicz_single_offset_example():
    px = np.zeros((3, 3))
    px[1, 1] = 0.8
    se = StructuringElement({(0, 1): 0.5})
    out = dilate(se, GridImage(px), MorphConfig(LUKASIEWICZ))
    want = np.zeros((3, 3))
    want[1, 2] = LUKASIEWICZ.mul(0.8, 0.5)
    assert close(want[1, 2], 0.3)
    assert np.array_equal(out.pixels, want)


def test_erode_all_ones_with_one_padding():
    rng = np.random.default_rng(52)
    ones = GridImage(np.ones((4, 4)))
    se = random_se(rng, GOEDEL, radius=2, count=6)
    out = erode(se, ones, MorphConfig(GOEDEL, padding="one"))
    assert np.array_equal(out.pixels, np.ones((4, 4)))


def test_replicate_padding_extends_edges():
    img = GridImage([[0.2, 0.9], [0.4, 0.6]])
    se = StructuringElement({(0, -1): 1.0})  # pulls the right neighbour
    out = dilate(se, img, MorphConfig(GOEDEL, padding="replicate"))
    # out(r, c) = img(r, c + 1); the last column replicates itself
    assert np.array_equal(out.pixels, [[0.9, 0.9], [0.6, 0.6]])


def test_boolean_rejects_grey_inputs():
    grey = GridImage(np.full((3, 3), 0.5))
    with pytest.raises(DomainError):
        dilate(ORIGIN, grey, MorphConfig(BOOLEAN))
    fuzzy_se = StructuringElement({(0, 0): 0.5})
    binary = GridImage(np.ones((3, 3)))
    with pytest.raises(DomainError):
        erode(fuzzy_se, binary, MorphConfig(BOOLEAN))
    with pytest.raises(DomainError):
        binary_brute_dilate(fuzzy_se, binary)


@pytest.mark.parametrize("op", [dilate, erode, opening, closing], ids=lambda op: op.__name__)
def test_boolean_refuses_a_grey_pixel_before_any_fold(monkeypatch, op):
    # the carrier is checked once, at the edge of each public op
    folds = []
    monkeypatch.setattr(morphology, "_level_fold", lambda *args: folds.append(args))
    px = np.ones((4, 5))
    px[2, 3] = 0.5
    with pytest.raises(DomainError):
        op(preset("cross3"), GridImage(px), MorphConfig(BOOLEAN))
    with pytest.raises(DomainError):
        op(StructuringElement({(0, 0): 1.0, (0, 1): 0.5}), GridImage(np.ones((4, 5))),
           MorphConfig(BOOLEAN))
    assert folds == []


@pytest.mark.parametrize("op", [dilate, erode, opening, closing], ids=lambda op: op.__name__)
@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_every_op_returns_read_only_float_pixels(q, op):
    # Boolean rasters fold as bytes, and come back as floats like every family's
    img = GridImage(unit_values(np.random.default_rng(83), (9, 7), q))
    for se in (preset("disk5"), StructuringElement({(0, 0): 0.0})):
        px = op(se, img, MorphConfig(q)).pixels
        assert px.dtype == np.float64 and px.shape == img.shape
        assert not px.flags.writeable


def test_padding_name_validated():
    with pytest.raises(ValueError):
        MorphConfig(GOEDEL, padding="mirror")


# --- oracles and laws ---------------------------------------------------------------

def test_boolean_matches_set_oracles():
    rng = np.random.default_rng(53)
    cfg = MorphConfig(BOOLEAN)
    for _ in range(30):
        img = random_binary(rng, (16, 16))
        se = random_se(rng, BOOLEAN, radius=1, count=5)
        assert np.array_equal(dilate(se, img, cfg).pixels, binary_brute_dilate(se, img).pixels)
        assert np.array_equal(erode(se, img, cfg).pixels, binary_brute_erode(se, img).pixels)


def test_brute_oracle_trivials():
    px = np.zeros((4, 4))
    px[2, 2] = 1.0
    img = GridImage(px)
    assert np.array_equal(binary_brute_dilate(ORIGIN, img).pixels, px)
    empty = GridImage(np.zeros((4, 4)))
    assert np.array_equal(binary_brute_dilate(preset("square3"), empty).pixels, np.zeros((4, 4)))


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_morphological_adjunction_interior(q):
    rng = np.random.default_rng(54)
    cfg = MorphConfig(q)
    for _ in range(40):
        se = random_se(rng, q, radius=2, count=6)
        if q is BOOLEAN:
            f = random_binary(rng, (10, 10), interior=2)
            g = random_binary(rng, (10, 10))
        else:
            fp = np.zeros((10, 10))
            fp[2:-2, 2:-2] = rng.integers(0, 65, (6, 6)) / 64.0
            f = GridImage(fp)
            g = GridImage(rng.integers(0, 65, (10, 10)) / 64.0)
        dil_ok = leq(dilate(se, f, cfg).pixels, g.pixels, tol=0.0)
        ero_ok = leq(f.pixels, erode(se, g, cfg).pixels, tol=0.0)
        if q in (GOEDEL, BOOLEAN):
            assert dil_ok == ero_ok
        else:
            if dil_ok:
                assert leq(f.pixels, erode(se, g, cfg).pixels)
            if ero_ok:
                assert leq(dilate(se, f, cfg).pixels, g.pixels)
        # boundary instance: g exactly the dilation
        g2 = dilate(se, f, cfg)
        assert leq(f.pixels, erode(se, g2, cfg).pixels)


@pytest.mark.parametrize("q", REAL_FAMILIES, ids=lambda q: q.family)
def test_translation_invariance_on_interior(q):
    rng = np.random.default_rng(55)
    cfg = MorphConfig(q)
    for _ in range(20):
        se = random_se(rng, q, radius=1, count=4)
        img = GridImage(rng.uniform(0, 1, (9, 9)))
        hy, hx = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        shifted_then = dilate(se, GridImage(shift_pixels(img.pixels, hy, hx)), cfg).pixels
        then_shifted = shift_pixels(dilate(se, img, cfg).pixels, hy, hx)
        m = 3  # margin: |h| + SE radius
        assert np.array_equal(shifted_then[m:-m, m:-m], then_shifted[m:-m, m:-m])


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_dilation_distributes_over_max_erosion_over_min(q):
    rng = np.random.default_rng(56)
    cfg = MorphConfig(q)
    for _ in range(15):
        se = random_se(rng, q, radius=1, count=5)
        if q is BOOLEAN:
            a, b = random_binary(rng, (7, 7)), random_binary(rng, (7, 7))
        else:
            a = GridImage(rng.uniform(0, 1, (7, 7)))
            b = GridImage(rng.uniform(0, 1, (7, 7)))
        joined = GridImage(np.maximum(a.pixels, b.pixels))
        assert close(
            dilate(se, joined, cfg).pixels,
            np.maximum(dilate(se, a, cfg).pixels, dilate(se, b, cfg).pixels),
        )
        met = GridImage(np.minimum(a.pixels, b.pixels))
        assert close(
            erode(se, met, cfg).pixels,
            np.minimum(erode(se, a, cfg).pixels, erode(se, b, cfg).pixels),
        )


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_opening_closing_laws(q):
    rng = np.random.default_rng(57)
    cfg = MorphConfig(q)
    for _ in range(15):
        se = random_se(rng, q, radius=1, count=4)
        img = random_binary(rng, (8, 8)) if q is BOOLEAN else GridImage(rng.uniform(0, 1, (8, 8)))
        opened = opening(se, img, cfg)
        assert leq(opened.pixels, img.pixels)
        assert close(opening(se, opened, cfg).pixels, opened.pixels)
        closed = closing(se, img, cfg)
        assert close(closing(se, closed, cfg).pixels, closed.pixels)
        # closing is extensive where the dilation stays in frame: the zero
        # embedding clips spill at the border, so keep the support interior
        if q is BOOLEAN:
            inner = random_binary(rng, (8, 8), interior=1)
        else:
            px = np.zeros((8, 8))
            px[1:-1, 1:-1] = rng.uniform(0, 1, (6, 6))
            inner = GridImage(px)
        assert leq(inner.pixels, closing(se, inner, cfg).pixels)


# --- the level fold against the per-offset oracle ---------------------------------------

def cone(radius=3):
    """A fuzzy (2r+1)^2 cone: 1 at the origin, nine weight levels, 0 at the corners."""
    foot = radius + 1.0
    return StructuringElement({
        (dy, dx): max(0.0, 1.0 - float(np.hypot(dy, dx)) / foot)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
    })


def boolean_cone():
    """The cone's support, all of weight 1."""
    return StructuringElement({d: float(v > 0.0) for d, v in cone().items()})


def nested_runs(weights, bounds, rows):
    """Rows of nested column runs, heaviest innermost.

    Level i spans the columns bounds[i] = (lo, hi), inside the next level's
    span.  Row dy holds the outermost span and joins at level rows[dy], so
    its inner columns weigh weights[rows[dy]]: rows that join at one level
    repeat one run, and all rows share the outer runs.
    """
    lo, hi = bounds[-1]
    level = {dx: next(i for i, (a, b) in enumerate(bounds) if a <= dx <= b)
             for dx in range(lo, hi + 1)}
    return StructuringElement({(dy, dx): weights[max(first, i)]
                               for dy, first in rows.items() for dx, i in level.items()})


def assert_matches_per_offset(se, img, cfg):
    assert dilate(se, img, cfg).pixels.tobytes() == dilate_per_offset(se, img, cfg).tobytes()
    assert erode(se, img, cfg).pixels.tobytes() == erode_per_offset(se, img, cfg).tobytes()


@st.composite
def run_elements(draw, palette, radius):
    # one to three weights, heaviest innermost, often without a weight-1 level;
    # up to five rows, so rows repeat one run and share the runs that grow
    weights = sorted(draw(st.lists(st.sampled_from(palette), min_size=1, max_size=3, unique=True)),
                     reverse=True)
    lo = hi = draw(st.integers(-radius, radius))
    bounds = []
    for _ in weights:
        lo, hi = draw(st.integers(-radius, lo)), draw(st.integers(hi, radius))
        bounds.append((lo, hi))
    rows = draw(st.dictionaries(st.integers(-radius, radius), st.integers(0, len(weights) - 1),
                                min_size=1, max_size=5))
    return nested_runs(weights, bounds, rows)


@st.composite
def level_cases(draw, q):
    palette = (0.0, 1.0) if q is BOOLEAN else ADVERSARIAL
    # radius up to 8 against rasters of 1x1 up to 6x6, so far offsets clamp onto one another
    radius = draw(st.integers(0, 8))
    if draw(st.booleans()):
        se = draw(run_elements(palette, radius))
    else:
        # a few distinct weights over up to 10 offsets, so levels hold several offsets
        weights = draw(st.lists(st.sampled_from(palette), min_size=1, max_size=3))
        reach = st.integers(-radius, radius)
        offsets = draw(st.lists(st.tuples(reach, reach), min_size=1, max_size=10, unique=True))
        se = StructuringElement({d: draw(st.sampled_from(weights)) for d in offsets})
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    return se, GridImage(draw(arrays(float, shape, elements=st.sampled_from(palette))))


@pytest.mark.parametrize("padding", PADDINGS)
@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
@given(data=st.data())
def test_level_fold_matches_per_offset_oracle_bit_for_bit(q, padding, data):
    se, img = data.draw(level_cases(q))
    assert_matches_per_offset(se, img, MorphConfig(q, padding))


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_level_fold_matches_per_offset_oracle_at_512(q):
    rng = np.random.default_rng(61)
    if q is BOOLEAN:
        img = random_binary(rng, (512, 512))
        elements = [preset(name) for name in sorted(PRESETS)]
        elements.append(boolean_cone())
    else:
        px = rng.uniform(0.0, 1.0, (512, 512))
        spots = rng.random((512, 512)) < 0.1
        px[spots] = rng.choice(ADVERSARIAL, spots.sum())
        img = GridImage(px)
        elements = [preset(name) for name in sorted(PRESETS)] + [cone()]
    for padding in PADDINGS:
        for se in elements:
            assert_matches_per_offset(se, img, MorphConfig(q, padding))


def test_subnormal_pixel_keeps_the_morphological_adjunction():
    # a raster stores values below the smallest normal float as 0; kept,
    # 5e-324 would dilate to 0.5 * 5e-324 = 0 beside itself and erode to 0
    se = StructuringElement({(0, 0): 1.0, (0, 1): 0.5})
    g = GridImage([[5e-324, 0.0, 0.0]])
    assert np.array_equal(g.pixels, [[0.0, 0.0, 0.0]])
    cfg = MorphConfig(PRODUCT, padding="zero")
    assert g <= erode(se, dilate(se, g, cfg), cfg)


def test_subnormal_weight_is_dropped_by_both_paths():
    # the Toeplitz kernel drops a weight below the smallest normal float, so
    # the element must too, or erosion by it would meet residuum(5e-324, 0) = 0
    se = StructuringElement({(0, 0): 1.0, (0, 1): 5e-324})
    assert dict(se.entries) == {(0, 0): 1.0, (0, 1): 0.0}
    img = GridImage([[0.5, 0.0]])
    cfg = MorphConfig(PRODUCT, padding="zero")
    via_kernel = inverse(toeplitz_kernel(se, 1, 2, cfg), img.element()).values.reshape(1, 2)
    assert np.array_equal(erode(se, img, cfg).pixels, via_kernel)
    assert np.array_equal(via_kernel, [[0.5, 0.0]])


# --- strips and tiles -------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 3])
def test_strips_and_tiles_change_no_bit(monkeypatch, workers):
    # shapes around the 64-row float tile, the 512-row byte tile and 3-strip
    # splits; the far offset on 130 rows shifts by more than a 65-row strip,
    # and the shared runs there are read by rows a tile and a strip apart, two
    # of them clamped onto one; on 1100 rows the same holds for byte tiles.
    # Threads switch as often as the interpreter allows, so a write lost
    # between strips would show.
    monkeypatch.setattr(morphology, "_WORKERS", workers)
    monkeypatch.setattr(morphology, "_STRIP_WORK", 1)
    rng = np.random.default_rng(67)
    shapes = [(1, 1), (63, 5), (64, 64), (65, 300), (129, 7), (300, 1), (1000, 3), (513, 6),
              (1600, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for q in ALL_FAMILIES:
            if q is BOOLEAN:
                se, weights = boolean_cone(), (1.0, 1.0, 1.0)
                far = StructuringElement({(200, 0): 1.0, (0, 0): 1.0, (-1, 2): 1.0})
            else:
                se, weights = cone(), (1.0, 1.0 - 2.0**-53, 0.5)
                far = StructuringElement({(200, 0): 0.5, (0, 0): 1.0, (-1, 2): 0.75})
            runs = nested_runs(weights, ((0, 0), (-1, 1), (-3, 3)),
                               {-100: 2, -2: 0, -1: 1, 0: 0, 1: 1, 65: 2, 150: 0, 200: 1})
            for padding in PADDINGS:
                cfg = MorphConfig(q, padding)
                for shape in shapes:
                    assert_matches_per_offset(se, GridImage(unit_values(rng, shape, q)), cfg)
                for tall in (far, runs, square3_and_far_row()):
                    for shape in ((130, 9), (1100, 9)):
                        assert_matches_per_offset(tall, GridImage(unit_values(rng, shape, q)), cfg)
    finally:
        sys.setswitchinterval(interval)


def square3_and_far_row():
    # shared rows 2 apart inside a reach of 40
    return StructuringElement({**preset("square3").entries, (40, 0): 1.0})


def test_shared_runs_fold_only_the_rows_their_readers_read():
    # buffers are addressed from row 0 of the tile's canvas, but a build folds
    # only the window of rows its readers read: the tile's 64 rows plus the
    # 2-row spread of the shared rows, never the 40-row reach as well
    img = GridImage(unit_values(np.random.default_rng(79), (128, 128), GOEDEL))
    cfg = MorphConfig(GOEDEL)
    se = square3_and_far_row()
    for sign, ufunc, act, empty in [(-1, np.maximum, GOEDEL._mul, 0.0),
                                    (1, np.minimum, GOEDEL._residuum, 1.0)]:
        written = set()

        def fold(a, b, out):
            written.add(out.shape[0])
            return ufunc(a, b, out=out)

        out = morphology._level_fold(se, img.pixels, cfg.padding, sign, fold, act, empty)
        oracle = dilate_per_offset if sign == -1 else erode_per_offset
        assert out.tobytes() == oracle(se, img, cfg).tobytes()
        assert max(written) == 64 + 2  # the tile, and a build over the tile plus the spread


@pytest.mark.parametrize("name, most", [
    ("cross3", 5), ("square3", 9), ("disk5", 13), ("cone7", 39), ("boolean-cone7", 15),
])
def test_nested_levels_and_shared_runs_cut_the_folds_per_tile(name, most):
    # a 64x64 raster is one inline tile, of floats or (Boolean) of bytes; one
    # fold per offset makes 5, 9, 13, 53 and 45 calls, and the cone's 8 mul
    # calls stay one per weight below 1
    q = BOOLEAN if name == "boolean-cone7" else PRODUCT
    se = {"cone7": cone, "boolean-cone7": boolean_cone}.get(name, lambda: preset(name))()
    calls = {"fold": 0, "mul": 0}

    def fold(*args, **kwargs):
        calls["fold"] += 1
        return np.maximum(*args, **kwargs)

    def mul(v, a):
        calls["mul"] += 1
        return q._mul(v, a)

    img = GridImage(unit_values(np.random.default_rng(73), (64, 64), q))
    cfg = MorphConfig(q)
    px = img.pixels.astype(np.uint8) if q is BOOLEAN else img.pixels
    out = morphology._level_fold(se, px, cfg.padding, -1, fold, mul, 0.0)
    assert out.dtype == px.dtype
    assert out.astype(float).tobytes() == dilate_per_offset(se, img, cfg).tobytes()
    assert calls["fold"] <= most
    assert calls["mul"] == len(set(se.entries.values()) - {0.0, 1.0})


@pytest.mark.parametrize("row", [-1, 0], ids=["helper-strip", "caller-strip"])
def test_a_helper_failure_reaches_the_caller_and_leaves_no_thread(monkeypatch, row):
    # the last row lies in a helper's strip, the first in strip 0, folded by the caller
    monkeypatch.setattr(morphology, "_WORKERS", 3)
    monkeypatch.setattr(morphology, "_STRIP_WORK", 1)
    raised_on = []

    class FailsOnOneRow(type(PRODUCT)):
        def _mul(self, x, y):
            if np.any(y == 0.25):  # only the failing row holds 0.25
                raised_on.append(threading.current_thread())
                raise ArithmeticError("one strip")
            return super()._mul(x, y)

    px = np.full((512, 512), 0.5)
    px[row] = 0.25
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="one strip"):
        dilate(StructuringElement({(0, 0): 0.5}), GridImage(px), MorphConfig(FailsOnOneRow()))
    assert threading.active_count() == before
    if row == 0:
        assert raised_on == [threading.main_thread()]
    else:
        assert raised_on and threading.main_thread() not in raised_on


@pytest.mark.parametrize("side, name, helpers", [
    (256, "disk5", 0), (256, "cone7", 0), (512, "cross3", 0), (512, "disk5", 0), (512, "cone7", 1),
    (512, "boolean-cone7", 0),
])
def test_only_folds_with_enough_work_per_strip_start_a_helper(monkeypatch, side, name, helpers):
    # a helper costs more than it saves on a small fold and makes its time vary;
    # a 512^2 Boolean cone folds 512-row byte tiles, so it is one inline tile
    monkeypatch.setattr(morphology, "_WORKERS", 2)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)  # the pool starts its workers through it
    q = BOOLEAN if name == "boolean-cone7" else PRODUCT
    se = {"cone7": cone, "boolean-cone7": boolean_cone}.get(name, lambda: preset(name))()
    img = GridImage(unit_values(np.random.default_rng(71), (side, side), q))
    assert_matches_per_offset(se, img, MorphConfig(q))
    assert len(started) == 2 * helpers  # one dilate and one erode


def test_import_starts_no_thread_and_no_pool():
    # perfbench's setup_s times this import, so helper threads start only inside a call;
    # a 256^2 disk5 dilation, the cli's, folds inline and never imports the pool either
    probe = ("import sys, threading; sys.path.insert(0, sys.argv[1]); import qimg, qimg.cli; "
             "report = lambda: print(threading.active_count(), 'concurrent.futures' in sys.modules); "
             "report(); import numpy as np; img = qimg.GridImage(np.full((256, 256), 0.5)); "
             "qimg.dilate(qimg.preset('disk5'), img, qimg.MorphConfig(qimg.PRODUCT)); report()")
    src = str(Path(morphology.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.split() == ["1", "False", "1", "False"]


# --- the Toeplitz bridge to the transform module --------------------------------------

def test_toeplitz_kernel_structure():
    cfg = MorphConfig(GOEDEL)
    assert np.array_equal(toeplitz_kernel(ORIGIN, 3, 3, cfg).values, np.eye(9))
    one_off = toeplitz_kernel(StructuringElement({(0, 1): 0.5}), 2, 3, cfg)
    vals = one_off.values
    assert vals.sum() == 0.5 * 4  # one band of four in-range pairs
    assert vals[0, 1] == 0.5 and vals[1, 2] == 0.5 and vals[3, 4] == 0.5 and vals[4, 5] == 0.5


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_toeplitz_matches_windowed_operators(q):
    rng = np.random.default_rng(58)
    cfg = MorphConfig(q)
    for _ in range(8):
        se = random_se(rng, q, radius=2, count=5)
        img = random_binary(rng, (8, 8)) if q is BOOLEAN else GridImage(rng.uniform(0, 1, (8, 8)))
        kernel = toeplitz_kernel(se, 8, 8, cfg)
        dil = forward(kernel, img.element()).values.reshape(8, 8)
        assert close(dilate(se, img, cfg).pixels, dil)
        ero = inverse(kernel, img.element()).values.reshape(8, 8)
        # zero padding values missing neighbours at bottom, the kernel omits
        # them; the two agree wherever the element support stays in frame
        assert close(erode(se, img, cfg).pixels[2:-2, 2:-2], ero[2:-2, 2:-2])
        assert leq(erode(se, img, cfg).pixels, ero, tol=0.0)


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_toeplitz_kernel_matches_its_dense_construction(q):
    rng = np.random.default_rng(57)
    cfg = MorphConfig(q)
    for rows, cols in ((1, 1), (3, 7), (6, 5)):
        for radius in (1, 3, 8):
            se = random_se(rng, q, radius=radius, count=6)
            assert np.array_equal(toeplitz_kernel(se, rows, cols, cfg).values,
                                  toeplitz_values_dense(se, rows, cols))
        # an offset far past the raster, which np.array could not hold as int64
        far = StructuringElement({**se.entries, (10**20, 1): 1.0})
        assert np.array_equal(toeplitz_kernel(far, rows, cols, cfg).values,
                              toeplitz_values_dense(far, rows, cols))


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_toeplitz_matches_windowed_operators_at_full_raster_size(q):
    # 256^2 is the cli raster; its dense Toeplitz kernel would take 32 GiB
    rng = np.random.default_rng(60)
    cfg = MorphConfig(q)
    se = random_se(rng, q, radius=2, count=5)
    img = random_binary(rng, (256, 256)) if q is BOOLEAN else GridImage(rng.uniform(0, 1, (256, 256)))
    kernel = toeplitz_kernel(se, 256, 256, cfg)
    dil = forward(kernel, img.element()).values.reshape(256, 256)
    assert close(dilate(se, img, cfg).pixels, dil)
    ero = inverse(kernel, img.element()).values.reshape(256, 256)
    assert close(erode(se, img, cfg).pixels[2:-2, 2:-2], ero[2:-2, 2:-2])
    assert leq(erode(se, img, cfg).pixels, ero, tol=0.0)


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_toeplitz_on_padded_canvas_matches_everywhere(q):
    rng = np.random.default_rng(59)
    cfg = MorphConfig(q)
    pad = 2
    for _ in range(8):
        se = random_se(rng, q, radius=pad, count=5)
        img = random_binary(rng, (7, 7)) if q is BOOLEAN else GridImage(rng.uniform(0, 1, (7, 7)))
        canvas = np.zeros((7 + 2 * pad, 7 + 2 * pad))
        canvas[pad:-pad, pad:-pad] = img.pixels
        big = GridImage(canvas)
        kernel = toeplitz_kernel(se, *big.shape, cfg)
        dil = forward(kernel, big.element()).values.reshape(big.shape)[pad:-pad, pad:-pad]
        ero = inverse(kernel, big.element()).values.reshape(big.shape)[pad:-pad, pad:-pad]
        assert close(dilate(se, img, cfg).pixels, dil)
        assert close(erode(se, img, cfg).pixels, ero)


# --- QSEL files -------------------------------------------------------------------------

def test_sel_file_round_trip(tmp_path):
    se = StructuringElement({(0, 0): 1.0, (-1, 2): 0.25, (1, -2): 0.75})
    path = tmp_path / "se.qsel"
    write_sel(path, se)
    assert read_sel(path).entries == se.entries
    assert path.read_text().splitlines()[0] == "QSEL 1"


@pytest.mark.parametrize(
    "text",
    [
        "QSEL 2\n0 0 1.0\n",
        "QSEL 1\n",
        "QSEL 1\n0 0\n",
        "QSEL 1\n0 0 1.5\n",
        "QSEL 1\na b 1.0\n",
        "QSEL 1\n0 0 1.0\u00e9\n",
        "QSEL 1\n0 0 1.0\n0 0 0.25\n",
    ],
    ids=["magic", "empty", "arity", "range", "ints", "non-ascii", "repeated-offset"],
)
def test_sel_file_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.qsel"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        read_sel(path)
