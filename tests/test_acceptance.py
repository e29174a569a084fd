"""Acceptance suite: one test per criterion, at the stated sizes and tolerances.

Each test prints a PASS line on success (run with ``pytest -s`` to see them
as the suite goes).  Expected total runtime is well under a minute.
"""

import math
from pathlib import Path

import numpy as np

from qimg import (
    BOOLEAN,
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    GridImage,
    IndexSet,
    Kernel,
    KernelLevel,
    ModuleElement,
    MorphConfig,
    StructuringElement,
    build_block_codebook,
    build_triangular_codebook,
    classify,
    compress,
    dilate,
    erode,
    forward,
    identity_kernel,
    inverse,
    kernel_of,
    mse,
    psnr,
    read_pgm,
    reconstruct,
    toeplitz_kernel,
    write_pgm,
)
from support import (
    ALL_FAMILIES,
    REAL_FAMILIES,
    TOL,
    binary_brute_dilate,
    binary_brute_erode,
    classify_bruteforce,
    close,
    leq,
    random_kernel,
    random_strong_kernel,
    residuum_oracle,
    shift_pixels,
    witness_satisfies,
)

SAMPLE = Path(__file__).parent / "data" / "sample64.pgm"


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


def dyadic(rng, shape):
    return rng.integers(0, 65, size=shape) / 64.0


def test_c1_quantale_law_suite():
    for q in ALL_FAMILIES:
        grid = np.array([0.0, 1.0]) if q is BOOLEAN else np.arange(65) / 64.0
        z, x, y = np.meshgrid(grid, grid, grid, indexing="ij")
        lhs = q.mul(z, x) <= y + TOL
        rhs = z <= q.residuum(x, y) + TOL
        violations = int(np.count_nonzero(lhs != rhs))
        assert violations == 0, f"{q.family}: {violations} adjunction violations"
        for xv in grid:
            for yv in grid:
                closed = q.residuum(float(xv), float(yv))
                grid_sup = residuum_oracle(q, float(xv), float(yv), 10_000)
                assert grid_sup <= closed + TOL
                assert closed - grid_sup <= 1e-4 + TOL
    report("C1 quantale laws (exhaustive adjunction + sup oracle)")


def test_c2_transform_adjunction():
    rng = np.random.default_rng(1002)
    for q in ALL_FAMILIES:
        iff_true_cases = 0
        for _ in range(200):
            nx = int(rng.integers(1, 13))
            ny = int(rng.integers(1, 9))
            if q is BOOLEAN:
                kv = rng.integers(0, 2, (nx, ny)).astype(float)
            else:
                kv = dyadic(rng, (nx, ny))
            p = Kernel(q, IndexSet(nx), IndexSet(ny), kv)
            for trial in range(5):
                if q is BOOLEAN:
                    fv = rng.integers(0, 2, nx).astype(float)
                    gv = rng.integers(0, 2, ny).astype(float)
                else:
                    fv = dyadic(rng, nx)
                    gv = dyadic(rng, ny)
                f = ModuleElement(p.domain, fv)
                g = ModuleElement(p.codomain, gv)
                if trial % 2 == 0:
                    g = forward(p, f)  # boundary case: the iff must come out true
                lhs = forward(p, f) <= g
                rhs = f <= inverse(p, g)
                assert lhs == rhs
                iff_true_cases += lhs
                assert leq(f.values, inverse(p, forward(p, f)).values)
                assert leq(forward(p, inverse(p, g)).values, g.values)
        assert iff_true_cases > 0
    report("C2 transform adjunction (200 kernels x 5 pairs per family)")


def test_c3_strong_transform_right_inverse():
    rng = np.random.default_rng(1003)
    kernels = []
    for q in REAL_FAMILIES:
        for _ in range(15):
            m, n = int(rng.integers(5, 11)), int(rng.integers(5, 11))
            a = int(rng.integers(2, min(m, 5)))
            b = int(rng.integers(2, min(n, 5)))
            kernels.append(build_triangular_codebook(q, m, n, a, b).kernel)
        for _ in range(15):
            ny = int(rng.integers(1, 7))
            kernels.append(random_strong_kernel(rng, q, int(rng.integers(ny, 12)), ny)[0])
    for _ in range(10):
        ny = int(rng.integers(1, 7))
        kernels.append(random_strong_kernel(rng, BOOLEAN, int(rng.integers(ny, 12)), ny)[0])
    assert len(kernels) == 100
    for p in kernels:
        for _ in range(5):
            if p.q is BOOLEAN:
                gv = rng.integers(0, 2, p.codomain.size).astype(float)
            else:
                gv = rng.uniform(0, 1, p.codomain.size)
            g = ModuleElement(p.codomain, gv)
            assert close(forward(p, inverse(p, g)).values, g.values)
    report("C3 strong transforms are right inverses (100 kernels x 5)")


def test_c4_kernel_uniqueness_via_extraction():
    rng = np.random.default_rng(1004)
    for q in ALL_FAMILIES:
        for _ in range(25):
            p = random_kernel(rng, q, int(rng.integers(1, 11)), int(rng.integers(1, 9)))
            extracted = kernel_of(lambda f: forward(p, f), q, p.domain, p.codomain)
            assert np.array_equal(extracted.values, p.values)
    report("C4 kernel extraction is entry-exact (100 kernels)")


def test_c5_classification_chain():
    rng = np.random.default_rng(1005)
    palettes = [
        (0.0, 1.0),
        (0.0, 0.5, 1.0),
        (0.0, 0.25, 0.5, 0.75, 1.0),
        None,  # continuous entries: almost surely general
    ]
    checked = 0
    for q in ALL_FAMILIES:
        for i in range(125):
            palette = palettes[i % len(palettes)]
            if q is BOOLEAN:
                palette = (0.0, 1.0)
            ny = int(rng.integers(1, 6))
            nx = int(rng.integers(ny, 7))
            p = random_kernel(rng, q, nx, ny, palette=palette)
            got = classify(p)
            want_level, want_orth = classify_bruteforce(p)
            assert got.level.value == want_level
            assert got.orthogonal == want_orth
            if got.epsilon is not None:
                assert witness_satisfies(p, got.epsilon, got.level.value)
            checked += 1
    assert checked == 500

    # generated exemplars of each class
    for q in (GOEDEL, PRODUCT):
        cb = build_triangular_codebook(q, 7, 6, 3, 2)
        assert classify(cb.kernel).level is KernelLevel.STRONG
    # hat bumps overlap by sums <= 1, which Lukasiewicz annihilates, so the
    # level may legitimately rise to orthonormal there
    luk = classify(build_triangular_codebook(LUKASIEWICZ, 7, 6, 3, 2).kernel)
    assert luk.level in (KernelLevel.STRONG, KernelLevel.ORTHONORMAL)
    for q in REAL_FAMILIES:
        assert classify(build_block_codebook(q, 7, 6, 3, 2).kernel).level is KernelLevel.ORTHONORMAL
    assert classify(identity_kernel(GOEDEL, IndexSet(5))).level is KernelLevel.ORTHONORMAL
    zero = Kernel(GOEDEL, IndexSet(4), IndexSet(3), np.zeros((4, 3)))
    assert classify(zero).level is KernelLevel.GENERAL
    # orthogonal without any unit entry stays general, flag raised
    lone = Kernel(GOEDEL, IndexSet(4), IndexSet(2), np.array([[0.9, 0], [0, 0.8], [0, 0], [0.4, 0]]))
    lone_class = classify(lone)
    assert lone_class.level is KernelLevel.GENERAL and lone_class.orthogonal
    report("C5 classification chain (500 random kernels + exemplars)")


def test_c6_binary_morphology_oracle():
    rng = np.random.default_rng(1006)
    cfg = MorphConfig(BOOLEAN)
    offsets = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    for _ in range(100):
        img = GridImage(rng.integers(0, 2, (16, 16)).astype(float))
        picks = rng.choice(9, size=int(rng.integers(1, 6)), replace=False)
        se = StructuringElement({offsets[i]: 1.0 for i in picks})
        assert np.array_equal(dilate(se, img, cfg).pixels, binary_brute_dilate(se, img).pixels)
        assert np.array_equal(erode(se, img, cfg).pixels, binary_brute_erode(se, img).pixels)

        # adjunction, exactly, for interior-supported inputs
        fp = np.zeros((16, 16))
        fp[1:-1, 1:-1] = rng.integers(0, 2, (14, 14))
        f = GridImage(fp)
        g = GridImage(rng.integers(0, 2, (16, 16)).astype(float))
        assert (dilate(se, f, cfg) <= g) == (f <= erode(se, g, cfg))

        # translation invariance away from the boundary
        hy, hx = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        shifted_then = dilate(se, GridImage(shift_pixels(img.pixels, hy, hx)), cfg).pixels
        then_shifted = shift_pixels(dilate(se, img, cfg).pixels, hy, hx)
        assert np.array_equal(shifted_then[3:-3, 3:-3], then_shifted[3:-3, 3:-3])
    report("C6 binary morphology equals the set oracles (100 instances)")


def test_c7_toeplitz_equivalence():
    rng = np.random.default_rng(1007)
    pad = 2
    for q in ALL_FAMILIES:
        for _ in range(50):
            if q is BOOLEAN:
                img = GridImage(rng.integers(0, 2, (12, 12)).astype(float))
            else:
                img = GridImage(rng.uniform(0, 1, (12, 12)))
            offsets = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)]
            picks = rng.choice(len(offsets), size=int(rng.integers(1, 7)), replace=False)
            if q is BOOLEAN:
                weights = [1.0] * len(picks)
            else:
                weights = rng.uniform(0, 1, len(picks))
            se = StructuringElement({offsets[i]: float(w) for i, w in zip(picks, weights)})
            cfg = MorphConfig(q)

            # same-grid kernel: dilation agrees everywhere, erosion wherever
            # the element stays in frame (the kernel has no off-frame nodes)
            kernel = toeplitz_kernel(se, 12, 12, cfg)
            assert close(
                dilate(se, img, cfg).pixels,
                forward(kernel, img.element()).values.reshape(12, 12),
            )
            ero_kernel = inverse(kernel, img.element()).values.reshape(12, 12)
            ero = erode(se, img, cfg).pixels
            assert close(ero[pad:-pad, pad:-pad], ero_kernel[pad:-pad, pad:-pad])
            assert leq(ero, ero_kernel, tol=0.0)

            # zero-embedding into a padded canvas recovers both, border included
            canvas = np.zeros((12 + 2 * pad, 12 + 2 * pad))
            canvas[pad:-pad, pad:-pad] = img.pixels
            big = GridImage(canvas)
            big_kernel = toeplitz_kernel(se, *big.shape, cfg)
            dil_pad = forward(big_kernel, big.element()).values.reshape(big.shape)
            ero_pad = inverse(big_kernel, big.element()).values.reshape(big.shape)
            assert close(dilate(se, img, cfg).pixels, dil_pad[pad:-pad, pad:-pad])
            assert close(ero, ero_pad[pad:-pad, pad:-pad])
    report("C7 windowed morphology equals the Toeplitz transforms (50 per family)")


def test_c8_compression_round_trip(tmp_path):
    img = read_pgm(SAMPLE)
    assert img.shape == (64, 64)
    ratios = {}
    for q in REAL_FAMILIES:
        cb = build_triangular_codebook(q, 64, 64, 16, 16)
        comp = compress(cb, img)
        rec = reconstruct(cb, comp)
        assert leq(img.pixels, rec.pixels)  # extensive
        rec2 = reconstruct(cb, compress(cb, rec))
        assert close(rec2.pixels, rec.pixels)  # idempotent at the second pass

        # quantized pipeline reaches a fixed compressed file
        c1 = tmp_path / f"{q.family}-c1.pgm"
        write_pgm(c1, comp)
        rec_q = reconstruct(cb, read_pgm(c1))
        c2 = tmp_path / f"{q.family}-c2.pgm"
        write_pgm(c2, compress(cb, rec_q))
        assert c1.read_bytes() == c2.read_bytes()

        ratios[q.family] = psnr(img, rec)
        assert math.isfinite(ratios[q.family])
        assert mse(img, rec) > 0.0
    # sanity floor on the min/max and product reconstructions; dropping the
    # residuum floor of the hat overlaps keeps lukasiewicz lower, reported only
    assert ratios["goedel"] > 10.0
    assert ratios["product"] > 10.0
    detail = ", ".join(f"{fam} {val:.2f} dB" for fam, val in ratios.items())
    report(f"C8 compression round trip on the bundled image ({detail})")
