"""Transforms, their adjoint pairs, kernel classification and extraction."""

import numpy as np
import pytest

from qimg import (
    BOOLEAN,
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    IndexSet,
    Kernel,
    KernelLevel,
    ModuleElement,
    ShapeError,
    bottom,
    classify,
    compose,
    constant,
    forward,
    identity_kernel,
    inverse,
    is_orthogonal,
    join_elems,
    kernel_of,
    read_kernel,
    scalar_mul,
    write_kernel,
)
from support import (
    ALL_FAMILIES,
    chain_kernel,
    classify_bruteforce,
    close,
    leq,
    random_element,
    random_kernel,
    random_strong_kernel,
    residuum_oracle,
    witness_satisfies,
)

X2, Y1 = IndexSet(2), IndexSet(1)


def hand_kernel():
    return Kernel(GOEDEL, X2, Y1, np.array([[1.0], [0.5]]))


def test_forward_hand_example():
    # the join-product evaluated by hand: max(min(.4,1), min(.8,.5)) = 0.5
    f = ModuleElement(X2, [0.4, 0.8])
    assert np.array_equal(forward(hand_kernel(), f).values, [0.5])


def test_inverse_hand_example():
    g = ModuleElement(Y1, [0.5])
    out = inverse(hand_kernel(), g)
    assert np.array_equal(out.values, [0.5, 1.0])
    # pointwise agreement with the sup oracle for the residua involved
    assert abs(residuum_oracle(GOEDEL, 1.0, 0.5, 10_000) - 0.5) <= 1e-4
    assert abs(residuum_oracle(GOEDEL, 0.5, 0.5, 10_000) - 1.0) <= 1e-4


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_forward_of_bottom_is_bottom(q):
    rng = np.random.default_rng(11)
    p = random_kernel(rng, q, 5, 3)
    assert np.array_equal(forward(p, bottom(p.domain)).values, np.zeros(3))


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_inverse_of_top_is_top(q):
    rng = np.random.default_rng(12)
    p = random_kernel(rng, q, 5, 3)
    assert np.array_equal(inverse(p, constant(p.codomain, 1.0)).values, np.ones(5))


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_identity_kernel_is_neutral(q):
    rng = np.random.default_rng(13)
    idx = IndexSet(6)
    eye = identity_kernel(q, idx)
    f = random_element(rng, q, idx)
    assert np.array_equal(forward(eye, f).values, f.values)
    assert np.array_equal(inverse(eye, f).values, f.values)


def test_shape_mismatch_rejected():
    p = hand_kernel()
    with pytest.raises(ShapeError):
        forward(p, ModuleElement(IndexSet(3), [0, 0, 0]))
    with pytest.raises(ShapeError):
        inverse(p, ModuleElement(IndexSet(2), [0, 0]))
    with pytest.raises(ShapeError):
        Kernel(GOEDEL, X2, Y1, np.zeros((1, 2)))


def test_boolean_kernel_entries_must_be_binary():
    from qimg import DomainError

    with pytest.raises(DomainError):
        Kernel(BOOLEAN, X2, Y1, np.array([[1.0], [0.5]]))


# --- adjoint pair -------------------------------------------------------------

@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_adjunction_iff_on_dyadic_grid(q):
    # on 1/64-grid data both sides of the iff are computed exactly
    rng = np.random.default_rng(21)
    for _ in range(60):
        nx, ny = rng.integers(1, 9), rng.integers(1, 6)
        if q is BOOLEAN:
            vals = rng.integers(0, 2, (nx, ny)).astype(float)
            fv = rng.integers(0, 2, nx).astype(float)
            gv = rng.integers(0, 2, ny).astype(float)
        else:
            vals = rng.integers(0, 65, (nx, ny)) / 64.0
            fv = rng.integers(0, 65, nx) / 64.0
            gv = rng.integers(0, 65, ny) / 64.0
        p = Kernel(q, IndexSet(nx), IndexSet(ny), vals)
        f = ModuleElement(p.domain, fv)
        g = ModuleElement(p.codomain, gv)
        assert (forward(p, f) <= g) == (f <= inverse(p, g))


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_unit_and_counit(q):
    rng = np.random.default_rng(22)
    for _ in range(40):
        p = random_kernel(rng, q, int(rng.integers(1, 10)), int(rng.integers(1, 7)))
        f = random_element(rng, q, p.domain)
        g = random_element(rng, q, p.codomain)
        assert leq(f.values, inverse(p, forward(p, f)).values)
        assert leq(forward(p, inverse(p, g)).values, g.values)


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_forward_preserves_joins_and_scalars(q):
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = random_kernel(rng, q, 7, 4)
        f = random_element(rng, q, p.domain)
        g = random_element(rng, q, p.domain)
        a = 1.0 if q is BOOLEAN else float(rng.uniform())
        assert close(
            forward(p, join_elems([f, g])).values,
            np.maximum(forward(p, f).values, forward(p, g).values),
        )
        assert close(
            forward(p, scalar_mul(q, a, f)).values,
            scalar_mul(q, a, forward(p, f)).values,
        )


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_inverse_preserves_meets(q):
    rng = np.random.default_rng(24)
    for _ in range(25):
        p = random_kernel(rng, q, 7, 4)
        g1 = random_element(rng, q, p.codomain)
        g2 = random_element(rng, q, p.codomain)
        meet = ModuleElement(p.codomain, np.minimum(g1.values, g2.values))
        assert close(
            inverse(p, meet).values,
            np.minimum(inverse(p, g1).values, inverse(p, g2).values),
        )


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_strong_kernels_invert_from_the_right(q):
    rng = np.random.default_rng(25)
    for _ in range(20):
        ny = int(rng.integers(1, 7))
        nx = int(rng.integers(ny, 12))
        p, _ = random_strong_kernel(rng, q, nx, ny)
        g = random_element(rng, q, p.codomain)
        assert close(forward(p, inverse(p, g)).values, g.values)


def test_strong_inverse_is_injective():
    rng = np.random.default_rng(26)
    p, _ = random_strong_kernel(rng, GOEDEL, 9, 4)
    g1 = random_element(rng, GOEDEL, p.codomain)
    g2 = ModuleElement(p.codomain, np.minimum(1.0, g1.values + 0.05))
    assert not np.array_equal(g1.values, g2.values)
    assert not np.array_equal(inverse(p, g1).values, inverse(p, g2).values)


# --- classification ------------------------------------------------------------

def test_identity_is_orthonormal():
    result = classify(identity_kernel(GOEDEL, IndexSet(4)))
    assert result.level is KernelLevel.ORTHONORMAL
    assert result.epsilon == (0, 1, 2, 3)
    assert result.orthogonal


def test_all_zero_kernel_is_general_but_orthogonal():
    p = Kernel(GOEDEL, IndexSet(3), IndexSet(2), np.zeros((3, 2)))
    result = classify(p)
    assert result.level is KernelLevel.GENERAL
    assert result.epsilon is None
    assert result.orthogonal


def test_normal_but_not_strong_example():
    p = Kernel(GOEDEL, X2, IndexSet(2), np.array([[1.0, 1.0], [0.2, 1.0]]))
    result = classify(p)
    assert result.level is KernelLevel.NORMAL
    assert result.epsilon == (0, 1)
    assert not result.orthogonal
    assert GOEDEL.mul(1.0, 1.0) != 0.0  # row 0 breaks orthogonality


def test_orthogonality_examples_lukasiewicz():
    high = Kernel(LUKASIEWICZ, IndexSet(1), IndexSet(2), np.array([[0.6, 0.7]]))
    low = Kernel(LUKASIEWICZ, IndexSet(1), IndexSet(2), np.array([[0.4, 0.5]]))
    assert LUKASIEWICZ.mul(0.6, 0.7) == pytest.approx(0.3)
    assert not is_orthogonal(high)
    assert LUKASIEWICZ.mul(0.4, 0.5) == 0.0
    assert is_orthogonal(low)


def test_coder_needs_a_system_of_distinct_representatives():
    # both columns share the single unit row, so no injection exists
    p = Kernel(GOEDEL, IndexSet(3), IndexSet(2), np.array([[1.0, 1.0], [0.5, 0.2], [0.0, 0.3]]))
    assert classify(p).level is KernelLevel.GENERAL
    # a second unit row in the right place unlocks the matching
    p2 = Kernel(GOEDEL, IndexSet(3), IndexSet(2), np.array([[1.0, 1.0], [0.5, 1.0], [0.0, 0.3]]))
    assert classify(p2).level is KernelLevel.NORMAL


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_classify_matches_exhaustive_oracle(q):
    rng = np.random.default_rng(27)
    palettes = [(0.0, 1.0)] if q is BOOLEAN else [(0.0, 0.3, 0.6, 1.0)]
    if q is LUKASIEWICZ:
        # repeated strong rows per column, products that round to zero
        palettes.append((0.0, 1e-17, 0.5, 0.51, 1.0))
    for palette in palettes:
        for _ in range(120):
            ny = int(rng.integers(1, 5))
            nx = int(rng.integers(1, 7))
            p = random_kernel(rng, q, nx, ny, palette=palette)
            got = classify(p)
            want_level, want_orth = classify_bruteforce(p)
            assert got.level.value == want_level
            assert got.orthogonal == want_orth
            if got.epsilon is not None:
                assert witness_satisfies(p, got.epsilon, got.level.value)


def test_long_augmenting_path_classifies_without_recursion():
    p = chain_kernel(GOEDEL, 1501)
    result = classify(p)
    assert result.level is KernelLevel.NORMAL
    assert witness_satisfies(p, result.epsilon, "normal")


def test_strong_generator_classifies_strong():
    rng = np.random.default_rng(28)
    p, eps = random_strong_kernel(rng, PRODUCT, 8, 3)
    result = classify(p)
    assert result.level in (KernelLevel.STRONG, KernelLevel.ORTHONORMAL)
    assert witness_satisfies(p, result.epsilon, "strong")
    assert set(eps) == set(eps)  # generator's witness is injective by construction


# --- kernel extraction and composition -----------------------------------------

def test_kernel_of_recovers_the_kernel_entry_exact():
    rng = np.random.default_rng(29)
    for q in ALL_FAMILIES:
        p = random_kernel(rng, q, 6, 4)
        extracted = kernel_of(lambda f: forward(p, f), q, p.domain, p.codomain)
        assert np.array_equal(extracted.values, p.values)


def test_kernel_of_identity_and_bottom_maps():
    idx = IndexSet(5)
    eye = identity_kernel(GOEDEL, idx)
    assert np.array_equal(kernel_of(lambda f: forward(eye, f), GOEDEL, idx, idx).values, np.eye(5))
    zero = kernel_of(lambda f: bottom(IndexSet(3)), GOEDEL, idx, IndexSet(3))
    assert np.array_equal(zero.values, np.zeros((5, 3)))


def test_distinct_kernels_act_distinctly():
    # uniqueness via extraction: perturbing one entry changes the action on a delta
    rng = np.random.default_rng(30)
    p1 = random_kernel(rng, GOEDEL, 5, 3)
    vals = p1.values.copy()
    vals[2, 1] = (vals[2, 1] + 0.5) % 1.0
    p2 = Kernel(GOEDEL, p1.domain, p1.codomain, vals)
    extracted1 = kernel_of(lambda f: forward(p1, f), GOEDEL, p1.domain, p1.codomain)
    extracted2 = kernel_of(lambda f: forward(p2, f), GOEDEL, p1.domain, p1.codomain)
    assert not np.array_equal(extracted1.values, extracted2.values)


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_compose_matches_nested_forward(q):
    rng = np.random.default_rng(31)
    p1 = random_kernel(rng, q, 4, 3)
    p2 = random_kernel(rng, q, 3, 2)
    both = compose(p1, p2)
    for _ in range(10):
        f = random_element(rng, q, p1.domain)
        assert close(forward(both, f).values, forward(p2, forward(p1, f)).values)


def test_compose_with_identity_is_neutral():
    rng = np.random.default_rng(32)
    p = random_kernel(rng, GOEDEL, 4, 3)
    assert np.array_equal(compose(p, identity_kernel(GOEDEL, p.codomain)).values, p.values)
    assert np.array_equal(compose(identity_kernel(GOEDEL, p.domain), p).values, p.values)


def test_compose_rejects_mismatches():
    p1 = random_kernel(np.random.default_rng(0), GOEDEL, 4, 3)
    p2 = random_kernel(np.random.default_rng(0), GOEDEL, 2, 2)
    with pytest.raises(ShapeError):
        compose(p1, p2)
    p3 = random_kernel(np.random.default_rng(0), PRODUCT, 3, 2)
    with pytest.raises(ShapeError):
        compose(p1, p3)


# --- QKERNEL files --------------------------------------------------------------

def test_kernel_file_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    p = random_kernel(rng, LUKASIEWICZ, 5, 4)
    path = tmp_path / "k.qk"
    write_kernel(path, p, comments=["generated for a round-trip test"])
    back, comments = read_kernel(path)
    assert back.q is LUKASIEWICZ
    assert (back.domain.size, back.codomain.size) == (5, 4)
    assert np.array_equal(back.values, p.values)
    assert comments == ["generated for a round-trip test"]


def test_kernel_file_tolerates_loose_whitespace(tmp_path):
    path = tmp_path / "k.qk"
    path.write_text("QKERNEL 1\n\ngoedel   2 2\n# a comment\n 1.0\t0.0 \n0.25   0.5\n")
    p, comments = read_kernel(path)
    assert np.array_equal(p.values, [[1.0, 0.0], [0.25, 0.5]])
    assert comments == ["a comment"]


@pytest.mark.parametrize(
    "text",
    [
        "QKERNEL 2\ngoedel 1 1\n0.5\n",
        "QKERNEL 1\nfrank 1 1\n0.5\n",
        "QKERNEL 1\ngoedel 2 1\n0.5\n",
        "QKERNEL 1\ngoedel 1 2\n0.5\n",
        "QKERNEL 1\ngoedel 1 1\n1.5\n",
        "QKERNEL 1\ngoedel 1 1\nzebra\n",
    ],
    ids=["magic", "family", "rows", "cols", "range", "token"],
)
def test_kernel_file_rejects_malformed(tmp_path, text):
    from qimg import ParseError

    path = tmp_path / "bad.qk"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_kernel(path)
