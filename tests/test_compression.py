"""Codebook builders, compression round trips and fidelity metrics."""

import math
import tracemalloc

import numpy as np
import pytest

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
    KernelLevel,
    ShapeError,
    build_block_codebook,
    build_triangular_codebook,
    classify,
    compress,
    mse,
    psnr,
    read_codebook,
    reconstruct,
    write_codebook,
)
from support import (
    REAL_FAMILIES,
    block_values_dense,
    close,
    custom_codebook,
    leq,
    triangular_values_dense,
)


def random_image(rng, shape):
    return GridImage(rng.uniform(0.0, 1.0, shape))


# --- builders ------------------------------------------------------------------

@pytest.mark.parametrize("q", REAL_FAMILIES, ids=lambda q: q.family)
@pytest.mark.parametrize("sizes", [
    (5, 5, 3, 3), (9, 14, 4, 5), (32, 32, 8, 8), (6, 4, 6, 4),
    (2, 9, 2, 4), (2, 2, 2, 2),  # an axis of length 2
    (7, 3, 7, 3),  # every position is a node
    (1000, 4, 7, 2),  # wide gaps between nodes
    (13, 17, 5, 7), (31, 29, 11, 3),  # prime sizes
])
def test_builders_match_their_dense_construction(q, sizes):
    m, n, a, b = sizes
    domain, codomain = IndexSet(m * n, (m, n)), IndexSet(a * b, (a, b))
    for build, dense in ((build_triangular_codebook, triangular_values_dense),
                         (build_block_codebook, block_values_dense)):
        made = build(q, *sizes).kernel
        want = dense(*sizes)
        assert np.array_equal(made.values, want)
        # the stored arrays too, slot order and dtypes included
        from_dense = Kernel(q, domain, codomain, want)
        for f in ("row_idx", "row_w", "col_idx", "col_w"):
            got, ref = getattr(made, f), getattr(from_dense, f)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), f
    assert np.array_equal(build_block_codebook(q, 7, 5, 1, 1).kernel.values,
                          block_values_dense(7, 5, 1, 1))


def test_large_codebook_round_trip_stays_small():
    # the dense 512^2 x 64^2 kernel alone would take 8 GiB
    rng = np.random.default_rng(9)
    tracemalloc.start()
    try:
        cb = build_triangular_codebook(GOEDEL, 512, 512, 64, 64)
        img = random_image(rng, (512, 512))
        back = reconstruct(cb, compress(cb, img))
        level = classify(cb.kernel).level
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    assert level is KernelLevel.STRONG
    assert leq(img.pixels, back.pixels)


def test_triangular_node_profile():
    cb = build_triangular_codebook(GOEDEL, 5, 5, 3, 3)
    vals = cb.kernel.values.reshape(5, 5, 3, 3)
    # bump 0 along the row axis at the column node 0: [1, .5, 0, 0, 0]
    assert np.array_equal(vals[:, 0, :, 0][:, 0], [1.0, 0.5, 0.0, 0.0, 0.0])
    # bumps are one-hot across nodes (rows 0, 2, 4)
    for h, node in enumerate([0, 2, 4]):
        got = vals[node, 0, :, 0]
        want = np.zeros(3)
        want[h] = 1.0
        assert np.array_equal(got, want)


def test_triangular_classifies_strong():
    for q in (GOEDEL, PRODUCT):
        cb = build_triangular_codebook(q, 6, 5, 3, 2)
        assert classify(cb.kernel).level is KernelLevel.STRONG
    # hat profiles sum to 1 along each axis, so Lukasiewicz products of
    # distinct codes vanish and the classification may rise to orthonormal
    cb = build_triangular_codebook(LUKASIEWICZ, 6, 5, 3, 2)
    assert classify(cb.kernel).level in (KernelLevel.STRONG, KernelLevel.ORTHONORMAL)


def test_triangular_with_codes_equal_to_pixels_is_permutation():
    cb = build_triangular_codebook(GOEDEL, 3, 4, 3, 4)
    assert np.array_equal(cb.kernel.values, np.eye(12))


def test_triangular_parameter_errors():
    with pytest.raises(ValueError):
        build_triangular_codebook(GOEDEL, 5, 5, 1, 3)
    with pytest.raises(ValueError):
        build_triangular_codebook(GOEDEL, 5, 5, 3, 6)
    with pytest.raises(DomainError):
        build_triangular_codebook(BOOLEAN, 5, 5, 3, 3)


def test_block_classifies_orthonormal():
    for q in REAL_FAMILIES:
        cb = build_block_codebook(q, 6, 7, 2, 3)
        result = classify(cb.kernel)
        assert result.level is KernelLevel.ORTHONORMAL
        assert result.orthogonal


def test_block_single_block_centers_on_the_image():
    cb = build_block_codebook(GOEDEL, 5, 5, 1, 1)
    result = classify(cb.kernel)
    assert result.level is KernelLevel.ORTHONORMAL
    assert result.epsilon == (2 * 5 + 2,)  # pixel (2, 2)
    vals = cb.kernel.values
    assert vals.min() >= 0.2
    assert vals[12, 0] == 1.0


def test_block_supports_are_disjoint():
    cb = build_block_codebook(PRODUCT, 8, 9, 3, 2)
    vals = cb.kernel.values
    for x in range(vals.shape[0]):
        assert np.count_nonzero(vals[x]) == 1
    for y1 in range(vals.shape[1]):
        for y2 in range(vals.shape[1]):
            if y1 != y2:
                assert np.all(PRODUCT.mul(vals[:, y1], vals[:, y2]) == 0.0)


def test_codebook_shape_sanity():
    with pytest.raises(ShapeError):
        custom_codebook(GOEDEL, np.ones((4, 9)), (2, 2), (3, 3))


@pytest.mark.parametrize("build", [build_block_codebook, build_triangular_codebook])
def test_only_builders_label_codebooks(build):
    # the label is no constructor argument, not even with the builder's own
    # kernel: a label would be written as the parameters
    kernel = build(GOEDEL, 6, 6, 3, 3).kernel
    for label in ("block", "triangular", "custom", "fancy"):
        with pytest.raises(TypeError):
            Codebook(kernel, label)
        with pytest.raises(TypeError):
            Codebook(kernel, builder=label)
    assert Codebook(kernel).builder == "custom"


# --- compression and reconstruction ---------------------------------------------

def test_compress_constant_images():
    cb = build_triangular_codebook(GOEDEL, 6, 6, 3, 3)
    ones = GridImage(np.ones((6, 6)))
    assert np.array_equal(compress(cb, ones).pixels, np.ones((3, 3)))
    zeros = GridImage(np.zeros((6, 6)))
    assert np.array_equal(compress(cb, zeros).pixels, np.zeros((3, 3)))


def test_compress_single_code_takes_the_max():
    cb = custom_codebook(GOEDEL, np.ones((4, 1)), (2, 2), (1, 1))
    img = GridImage([[0.4, 0.8], [0.0, 0.2]])
    assert np.array_equal(compress(cb, img).pixels, [[0.8]])


def test_reconstruct_all_ones_is_all_ones():
    cb = build_block_codebook(PRODUCT, 6, 6, 2, 2)
    ones = GridImage(np.ones((2, 2)))
    assert np.array_equal(reconstruct(cb, ones).pixels, np.ones((6, 6)))


def test_shape_mismatches_rejected():
    cb = build_triangular_codebook(GOEDEL, 6, 6, 3, 3)
    with pytest.raises(ShapeError):
        compress(cb, GridImage(np.zeros((5, 6))))
    with pytest.raises(ShapeError):
        reconstruct(cb, GridImage(np.zeros((4, 3))))


@pytest.mark.parametrize("q", REAL_FAMILIES, ids=lambda q: q.family)
@pytest.mark.parametrize("builder", [build_triangular_codebook, build_block_codebook])
def test_round_trip_dominates_and_fixes(q, builder):
    rng = np.random.default_rng(41)
    cb = builder(q, 8, 7, 3, 2)
    for _ in range(10):
        img = random_image(rng, (8, 7))
        rec = reconstruct(cb, compress(cb, img))
        assert leq(img.pixels, rec.pixels)  # adjunction unit
        # strong/orthonormal codebooks fix the compressed side
        comp = GridImage(rng.uniform(0.0, 1.0, (3, 2)))
        assert close(compress(cb, reconstruct(cb, comp)).pixels, comp.pixels)


@pytest.mark.parametrize("q", REAL_FAMILIES, ids=lambda q: q.family)
def test_reconstruction_operator_is_idempotent(q):
    rng = np.random.default_rng(42)
    cb = build_triangular_codebook(q, 9, 9, 4, 3)
    for _ in range(5):
        img = random_image(rng, (9, 9))
        once = reconstruct(cb, compress(cb, img))
        twice = reconstruct(cb, compress(cb, once))
        assert close(once.pixels, twice.pixels)


def test_compress_is_monotone_and_join_preserving():
    rng = np.random.default_rng(43)
    cb = build_triangular_codebook(GOEDEL, 8, 8, 3, 3)
    for _ in range(10):
        a = random_image(rng, (8, 8))
        b = GridImage(np.minimum(1.0, a.pixels + rng.uniform(0, 0.3, (8, 8))))
        assert leq(compress(cb, a).pixels, compress(cb, b).pixels, tol=0.0)
        c = random_image(rng, (8, 8))
        joined = GridImage(np.maximum(a.pixels, c.pixels))
        assert close(
            compress(cb, joined).pixels,
            np.maximum(compress(cb, a).pixels, compress(cb, c).pixels),
        )


# --- metrics --------------------------------------------------------------------

def test_metrics_identical_and_constant_offset():
    img = GridImage(np.full((4, 4), 0.75))
    assert mse(img, img) == 0.0
    assert psnr(img, img) == math.inf
    other = GridImage(np.full((4, 4), 0.25))
    assert close(mse(img, other), 0.25)
    assert close(psnr(img, other), 10.0 * math.log10(4.0))


def test_mse_against_independent_summation_order():
    rng = np.random.default_rng(44)
    a = random_image(rng, (6, 5))
    b = random_image(rng, (6, 5))
    total = math.fsum(
        (float(a.pixels[r, c]) - float(b.pixels[r, c])) ** 2
        for c in range(5)
        for r in range(6)
    )
    assert close(mse(a, b), total / 30.0)


def test_metrics_shape_mismatch():
    with pytest.raises(ShapeError):
        mse(GridImage(np.zeros((2, 2))), GridImage(np.zeros((2, 3))))


# --- codebook files -------------------------------------------------------------

def test_codebook_file_round_trip(tmp_path):
    cb = build_block_codebook(LUKASIEWICZ, 6, 4, 2, 2)
    path = tmp_path / "cb.qk"
    write_codebook(path, cb)
    back = read_codebook(path)
    assert back.builder == "block"
    assert back.image_shape == (6, 4)
    assert back.code_shape == (2, 2)
    assert np.array_equal(back.kernel.values, cb.kernel.values)
    assert back.kernel.q is LUKASIEWICZ


def test_large_codebook_file_holds_only_the_parameters(tmp_path):
    cb = build_triangular_codebook(PRODUCT, 512, 512, 64, 64)
    path = tmp_path / "cb.qk"
    write_codebook(path, cb)
    assert path.stat().st_size < 100
    back = read_codebook(path).kernel
    for name in ("row_idx", "row_w", "col_idx", "col_w"):
        assert np.array_equal(getattr(back, name), getattr(cb.kernel, name))


def test_dense_codebook_comment_is_checked_before_the_body(tmp_path):
    from qimg import ParseError

    # the comment's 2x3 grid cannot cover the header's 4 pixels, and every row is short
    path = tmp_path / "cb.qk"
    path.write_text("QKERNEL 1\ngoedel 4 4\n# builder custom 2 3 2 2\n" + "0.5 0.5\n" * 4)
    with pytest.raises(ParseError) as exc:
        read_codebook(path)
    assert str(exc.value) == f"{path}: shape (2, 3) does not cover size 4"


def test_codebook_file_requires_builder_comment(tmp_path):
    from qimg import ParseError, write_kernel

    cb = build_block_codebook(GOEDEL, 4, 4, 2, 2)
    path = tmp_path / "plain.qk"
    write_kernel(path, cb.kernel)
    with pytest.raises(ParseError):
        read_codebook(path)
