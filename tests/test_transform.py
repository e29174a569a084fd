"""Transforms, their adjoint pairs, kernel classification and extraction."""

import ast
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import qimg
from qimg import (
    BOOLEAN,
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    DomainError,
    IndexSet,
    Kernel,
    KernelLevel,
    ModuleElement,
    ParseError,
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
    load_kernel,
    read_codebook,
    read_kernel,
    read_sel,
    scalar_mul,
    scalar_residuum,
    write_kernel,
)
from qimg import formats
from qimg.quantale import TINY
from support import (
    ALL_FAMILIES,
    REAL_FAMILIES,
    chain_kernel,
    classify_bruteforce,
    close,
    compose_dense,
    epsilon_dense,
    forward_dense,
    inverse_dense,
    is_orthogonal_dense,
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
    # exactly one of the two forms
    with pytest.raises(ShapeError, match="exactly one"):
        Kernel(GOEDEL, X2, Y1, np.ones((2, 1)), entries=([0], [0], [1.0]))
    with pytest.raises(ShapeError, match="exactly one"):
        Kernel(GOEDEL, X2, Y1)


def test_boolean_kernel_entries_must_be_binary():
    with pytest.raises(DomainError):
        Kernel(BOOLEAN, X2, Y1, np.array([[1.0], [0.5]]))


@pytest.mark.parametrize("x, y, w, problem", [
    ([2], [0], [0.5], "x indices"),
    ([-1], [0], [0.5], "x indices"),
    ([0], [1], [0.5], "y indices"),
    ([0.0], [0], [0.5], "integers"),
    ([1, 0, 1], [0, 0, 0], [1.0, 0.5, 1.0], "repeat an"),
    ([0, 1, 1], [0, 0, 0], [1.0, 0.5, 1.0], "repeat an"),
    ([0, 1], [0], [0.5, 0.5], "entries hold"),
], ids=["x-past-end", "x-negative", "y-past-end", "x-float", "repeated-pair",
        "repeated-adjacent-pair", "unequal-lengths"])
def test_kernel_entries_are_checked(x, y, w, problem):
    with pytest.raises(ShapeError, match=problem):
        Kernel(GOEDEL, X2, Y1, entries=(np.array(x), np.array(y), np.array(w)))


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


@pytest.mark.parametrize("q", REAL_FAMILIES, ids=lambda q: q.family)
def test_subnormal_entry_keeps_the_adjunction(q):
    # the float product underflows on a subnormal weight (0.5 * 5e-324 is 0),
    # so the kernel stores such a weight as 0
    p = Kernel(q, IndexSet(1), IndexSet(1), [[5e-324]])
    f = ModuleElement(p.domain, [0.5])
    assert f <= inverse(p, forward(p, f))
    assert np.array_equal(p.values, [[0.0]])


def test_subnormal_element_keeps_the_adjunction():
    # an element stores values below the smallest normal float as 0, as a
    # kernel does; kept, 5e-324 would map to 0.5 * 5e-324 = 0 and back to 0
    p = Kernel(PRODUCT, IndexSet(1), IndexSet(1), [[0.5]])
    f = ModuleElement(p.domain, [5e-324])
    assert np.array_equal(f.values, [0.0])
    assert f <= inverse(p, forward(p, f))


def test_boolean_operators_reject_grey_elements():
    eye = identity_kernel(BOOLEAN, IndexSet(2))
    grey = ModuleElement(IndexSet(2), [0.3, 0.7])
    for apply in (lambda f: forward(eye, f), lambda g: inverse(eye, g),
                  lambda f: scalar_mul(BOOLEAN, 1.0, f), lambda f: scalar_residuum(BOOLEAN, 1.0, f)):
        with pytest.raises(DomainError):
            apply(grey)
    binary = ModuleElement(IndexSet(2), [0.0, 1.0])
    assert np.array_equal(forward(eye, binary).values, binary.values)
    assert np.array_equal(inverse(eye, binary).values, binary.values)


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
    # as dense zeros and as empty entry lists, which np.asarray makes float
    for p in (Kernel(GOEDEL, IndexSet(3), IndexSet(2), np.zeros((3, 2))),
              Kernel(GOEDEL, IndexSet(3), IndexSet(2), entries=([], [], []))):
        assert np.array_equal(p.values, np.zeros((3, 2)))
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


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_witness_matches_the_dense_matcher_oracle(q):
    # units behind other entries of their rows sit in slots > 0, so a matcher
    # that tried its rows in slot order rather than ascending x would pick
    # another (equally valid) epsilon, and qimg classify would print it
    rng = np.random.default_rng(34)
    palette = (0.0, 1.0) if q is BOOLEAN else (0.0, 0.0, 0.4, 1.0)
    levels = set()
    for _ in range(300):
        ny = int(rng.integers(1, 6))
        nx = int(rng.integers(ny, 9))
        vals = rng.choice(np.asarray(palette), size=(nx, ny))
        vals[:, 0] = np.maximum(vals[:, 0], rng.choice([0.0, 0.5 if q is not BOOLEAN else 1.0], nx))
        p = Kernel(q, IndexSet(nx), IndexSet(ny), vals)
        got = classify(p)
        levels.add(got.level)
        assert got.epsilon == epsilon_dense(p)
    assert KernelLevel.NORMAL in levels


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


# --- sparse storage against the dense formulas ------------------------------------

def weights(q):
    if q is BOOLEAN:
        return st.sampled_from([0.0, 1.0])
    return st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def kernel_values(draw, q, nx: int, ny: int) -> np.ndarray:
    """Dense entries shaped to stress the padded layouts."""
    vals = draw(arrays(float, (nx, ny), elements=weights(q)))
    layout = draw(st.sampled_from(["holes", "empty", "dense", "column0", "dense_row", "dense_col"]))
    if layout == "holes":  # whole rows and columns of zeros
        vals[draw(arrays(bool, nx)), :] = 0.0
        vals[:, draw(arrays(bool, ny))] = 0.0
    elif layout == "empty":  # every layout is one padded slot wide
        vals[:] = 0.0
    elif layout == "dense":  # no padding at all
        vals[vals < TINY] = 1.0
    elif layout == "column0":  # a lone entry in column 0 beside padding that also points at column 0
        vals[0, :] = 0.0
        vals[0, 0] = 1.0
        vals[-1, vals[-1] < TINY] = 1.0
    else:  # one full row (column) beside at most one entry per other row and column
        full = np.where(vals < TINY, 1.0, vals)
        vals[~np.eye(nx, ny, dtype=bool)] = 0.0
        if layout == "dense_row":
            r = draw(st.integers(0, nx - 1))
            vals[r] = full[r]
        else:
            c = draw(st.integers(0, ny - 1))
            vals[:, c] = full[:, c]
    return vals


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
@given(data=st.data())
def test_sparse_kernel_matches_dense_oracles(q, data):
    nx, ny, nz = (data.draw(st.integers(1, 6)) for _ in range(3))
    vals = data.draw(kernel_values(q, nx, ny))
    p = Kernel(q, IndexSet(nx), IndexSet(ny), vals)
    assert np.array_equal(p.values, np.where(vals < TINY, 0.0, vals))
    f = ModuleElement(p.domain, data.draw(arrays(float, nx, elements=weights(q))))
    g = ModuleElement(p.codomain, data.draw(arrays(float, ny, elements=weights(q))))
    assert np.array_equal(forward(p, f).values, forward_dense(p, f))
    assert np.array_equal(inverse(p, g).values, inverse_dense(p, g))
    assert is_orthogonal(p) == is_orthogonal_dense(p)
    p2 = Kernel(q, p.codomain, IndexSet(nz), data.draw(kernel_values(q, ny, nz)))
    assert np.array_equal(compose(p, p2).values, compose_dense(p, p2))


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_identity_kernel_is_the_unit_matrix(q):
    assert np.array_equal(identity_kernel(q, IndexSet(7)).values, np.eye(7))


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


# --- QKERNEL files, read by formats.read_qkernel -------------------------------

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
    text = "QKERNEL 1\n\ngoedel   2 2\n# a comment\n 1.0\t0.0 \n  # between rows\n0.25   0.5\n"
    for newline in ("\n", "\r\n"):
        path.write_bytes(text.replace("\n", newline).encode("ascii"))
        p, comments = read_kernel(path)
        assert np.array_equal(p.values, [[1.0, 0.0], [0.25, 0.5]])
        assert comments == ["a comment", "between rows"]


@pytest.mark.parametrize("comment", ["two\nlines", "a\r\nb", "cr\rhere", "vt\x0bhere", "fs\x1chere",
                                     "ends in a newline\n", "caf\u00e9"],
                         ids=["lf", "crlf", "cr", "vt", "fs", "final-lf", "non-ascii"])
def test_write_kernel_refuses_a_comment_that_would_not_read_back(tmp_path, comment):
    # a line break would split the comment into a second line of the file, and
    # the file is ASCII; either is refused before an existing file is truncated
    path = tmp_path / "k.qk"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match="is not one line of ASCII"):
        write_kernel(path, identity_kernel(GOEDEL, IndexSet(2)), comments=["fine", comment])
    assert path.read_bytes() == b"kept"


def test_every_ascii_comment_is_refused_or_read_back(tmp_path):
    # the writer refuses a comment exactly where the head reader would break
    # its line, so every comment it writes reads back unchanged
    path, refused = tmp_path / "k.qk", []
    for c in map(chr, range(128)):
        path.write_bytes(b"kept")
        try:
            write_kernel(path, identity_kernel(GOEDEL, IndexSet(2)), comments=[f"a{c}b"])
        except ValueError:
            assert path.read_bytes() == b"kept"
            refused.append(c)
            continue
        assert read_kernel(path)[1] == [f"a{c}b"]
    assert refused == ["\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("QKERNEL 2\ngoedel 1 1\n0.5\n", "missing 'QKERNEL 1' header"),
        ("QKERNEL 1\nfrank 1 1\n0.5\n", "unknown quantale family 'frank'"),
        ("QKERNEL 1\ngoedel 2 1\n0.5\n", "expected 2 data rows, found 1"),
        ("QKERNEL 1\ngoedel 1 2\n0.5\n", "row 0 has 1 values, expected 2"),
        ("QKERNEL 1\ngoedel 1 1\n1.5\n", "must lie in [0,1]"),
        ("QKERNEL 1\ngoedel 1 1\nzebra\n", "row 0 holds a non-numeric token"),
        ("QKERNEL 1\ngoedel 1 1\n0.5\u00e9\n", "'ascii' codec can't decode"),
        ("QKERNEL 1\n", "missing size header line"),
        ("QKERNEL 1\ngoedel 2\n0.5\n", "expected '<family>"),
        ("QKERNEL 1\ngoedel 0 1\n", "non-empty"),
        ("QKERNEL 1\ngoedel 1 x\n0.5\n", "sizes must be integers, got 'goedel 1 x'"),
        ("QKERNEL 1\ngoedel 1.5 1\n0.5\n", "sizes must be integers, got 'goedel 1.5 1'"),
        # no row of 10^12 zeros is built to compare the body with
        ("QKERNEL 1\ngoedel 1 1000000000000\n0 0\n", "row 0 has 2 values, expected 1000000000000"),
    ],
    ids=["magic", "family", "rows", "cols", "range", "token", "non-ascii", "no-size-line",
         "short-size-line", "empty-domain", "non-integer-size", "fractional-size", "huge-row"],
)
def test_kernel_file_rejects_malformed(tmp_path, text, fragment):
    from qimg import ParseError

    path = tmp_path / "bad.qk"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_kernel(path)
    assert fragment in str(err.value)
    assert str(err.value).count(str(path)) == 1


# a body that fails both readers, after each head but one: with no size line, it would be that line
_B = "zebra\u00e9 0.5\n" * 4


@pytest.mark.parametrize("read, text, fragment", [
    (read_kernel, "QKERNEL 2\ngoedel 1 1\n" + _B, "missing 'QKERNEL 1' header"),
    (read_codebook, "QCODEBOOK 2\ngoedel block 16 16 4 4\n" + _B,
     "missing 'QCODEBOOK 1' or 'QKERNEL 1' header"),
    (read_sel, "QSEL 2\n" + _B, "missing 'QSEL 1' header"),
    (read_kernel, "QKERNEL 1\nfrank 1 1\n" + _B, "unknown quantale family 'frank'"),
    (read_kernel, "QKERNEL 1\ngoedel 1 x\n" + _B, "sizes must be integers, got 'goedel 1 x'"),
    (read_kernel, "QKERNEL 1\ngoedel 0 1\n" + _B, "index set must be non-empty"),
    (read_kernel, "QKERNEL 1\ngoedel 4 -2\n" + _B, "index set must be non-empty"),
    (read_kernel, "QKERNEL 1\ngoedel 2\n" + _B, "expected '<family> <|X|> <|Y|>', got 'goedel 2'"),
    (read_kernel, "QKERNEL 1\n# no size line\n", "missing size header line"),
    (read_codebook, "QKERNEL 1\ngoedel 4 4\n# builder custom 2 3 2 2\n" + _B,
     "shape (2, 3) does not cover size 4"),
    (read_codebook, "QKERNEL 1\ngoedel 4 4\n" + _B,
     "no '# builder <name> <m> <n> <a> <b>' comment line"),
    (read_codebook, "QCODEBOOK 1\ngoedel foo 16 16 4 4\n" + _B, "unknown builder 'foo'"),
    (read_codebook, "QCODEBOOK 1\ngoedel block 16 16 4\n" + _B,
     "expected '<family> <builder> <m> <n> <a> <b>'"),
    (read_codebook, "QCODEBOOK 1\ngoedel block 16 16.0 4 4\n" + _B, "malformed builder parameters"),
    (read_codebook, "QCODEBOOK 1\nfrankian block 16 16 4 4\n" + _B, "unknown quantale family 'frankian'"),
    (read_kernel, "QKERNEL 1\n# caf\u00e9\ngoedel 4 2\n" + _B, "'ascii' codec can't decode byte 0xc3"),
    (read_codebook, "QKERNEL 1\ngoedel 4 2\n# builder custom 2 2 2 1 \u00e9\n" + _B,
     "'ascii' codec can't decode"),
    (read_sel, "QSEL 1\u00e9\n" + _B, "'ascii' codec can't decode"),
], ids=["magic-qkernel", "magic-qcodebook", "magic-qsel", "family", "non-integer-size",
        "zero-size", "negative-size", "short-size-line", "missing-size-line", "grid-does-not-cover",
        "missing-builder-comment", "params-unknown-builder", "params-short-line",
        "params-non-integer", "params-unknown-family", "non-ascii-comment",
        "non-ascii-builder-comment", "non-ascii-magic"])
def test_head_faults_fail_before_the_body(tmp_path, read, text, fragment):
    path = tmp_path / "head.txt"
    path.write_bytes(text.encode("utf-8"))
    body = AssertionError("the body was read")
    with mock.patch.object(formats, "_body", side_effect=body), \
            mock.patch.object(formats, "_uniform_rows", side_effect=body):
        with pytest.raises(ParseError) as err:
            read(path)
    assert fragment in str(err.value)
    # unpatched, the head fault still comes before the body's
    with pytest.raises(ParseError) as unpatched:
        read(path)
    assert (str(unpatched.value), unpatched.value.offset) == (str(err.value), err.value.offset)


@pytest.mark.parametrize("read, text", [
    (read_kernel, "QKERNEL 1\n# caf\u00e9\ngoedel 1 1\n0.5\n"),
    (read_kernel, "QKERNEL 1\r\ngoedel 1 1\r\n\u00e90.5\r\n"),
    (read_kernel, "QKERNEL 1\ngoedel 3 2\n0 0\n0 0.5\n0.5\u00e9 0\n"),
    (read_codebook, "QCODEBOOK 1\ngoedel block 16 16 4 4\n# \u00e9\n"),
    (read_sel, "QSEL 1\n0 0 1.0\n0 1 0.5\u00e9\n"),
], ids=["kernel-head", "kernel-first-row", "kernel-body", "codebook-comment", "sel-body"])
def test_a_non_ascii_byte_is_reported_at_its_offset_in_the_file(tmp_path, read, text):
    path = tmp_path / "bad.txt"
    data = text.encode("utf-8")
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        read(path)
    at = data.index(b"\xc3")
    assert err.value.offset == at
    assert str(err.value) == f"{path}: 'ascii' codec can't decode byte 0xc3 (byte {at})"


# the dense-path reference: with the uniform-rows pass turned down, read_kernel
# takes the dense path, which converts every token with one loadtxt and builds
# the kernel from the matrix's nonzeros
def _read_dense(path):
    with mock.patch.object(formats, "_uniform_rows", lambda data, start, nx, ny: None):
        return read_kernel(path)


def _kernel_outcome(read, path):
    """The kernel's family, sizes and stored arrays, bit for bit, and the comments; or the error's text and offset."""
    try:
        p, comments = read(path)
    except ParseError as exc:
        return str(exc), exc.offset
    arrays = (p.row_idx, p.row_w, p.col_idx, p.col_w)
    return p.q.family, p.domain, p.codomain, [(a.dtype, a.shape, a.tobytes()) for a in arrays], comments


_ZERO_SPELLINGS = ["0", "0.0", ".0", "0.", "00"]
_NONZERO_TOKENS = ["-0", "1.0", "0.25", "1e-320"]
# the last four hold only number bytes, and loadtxt rejects them
_BAD_TOKENS = ["nan", ".", "..", "0.0.0", "#", "1.2.3", "e5", "+-1", "1e"]
# whole-file variants that the dense path reads
_LAYOUTS = ["comment-head", "comment-rows", "blank", "spaces-line", "crlf", "trailing",
            "no-newline", "non-ascii"]


@st.composite
def _kernel_texts(draw):
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    # mostly zero spellings.  Uniform bodies spell every zero alike and split
    # their tokens by single spaces, as the uniform-rows pass takes them when
    # no flaw or layout turns it down; in the others every row opens with a
    # separator, so the pass refuses them and they check that refusal
    uniform = draw(st.booleans())
    if uniform:
        token = st.sampled_from([draw(st.sampled_from(_ZERO_SPELLINGS))] * 24 + _NONZERO_TOKENS)
    else:
        token = st.sampled_from(_ZERO_SPELLINGS * 8 + _NONZERO_TOKENS)
    rows = [draw(st.lists(token, min_size=ny, max_size=ny)) for _ in range(nx)]
    # at most one flaw, so that each one meets the readers on its own
    flaw, r = draw(st.sampled_from([None, "token", "move", "drop"])), draw(st.integers(0, nx - 1))
    if flaw == "token":
        rows[r][draw(st.integers(0, ny - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    elif flaw == "move":  # two rows of the wrong length, and the right token count
        rows[(r + 1) % nx].append(rows[r].pop())
    elif flaw == "drop":
        rows[r].pop()
    lines = []
    for row in rows:
        if uniform:
            lines.append(" ".join(row))
            continue
        seps = draw(st.lists(st.sampled_from([" ", "\t", "  "]), min_size=len(row), max_size=len(row)))
        lines.append("".join(s + t for s, t in zip(seps, row)))
    family = draw(st.sampled_from(["goedel", "boolean"]))
    layout = draw(st.sets(st.sampled_from(_LAYOUTS), max_size=2))
    head = [f"{family} {nx} {ny}"]
    if "comment-head" in layout:
        head = ["# before the sizes", *head, "\t# after them "]
    if "trailing" in layout:
        lines = [ln + draw(st.sampled_from([" ", "\t", "  "])) for ln in lines]
    if "non-ascii" in layout:
        lines[r] += "\u00e9"
    for kind, line in (("comment-rows", "# among the rows"), ("blank", ""), ("spaces-line", " \t ")):
        if kind in layout:
            lines.insert(draw(st.integers(0, len(lines))), line)
    text = "\n".join(["QKERNEL 1", *head, *lines]) + ("" if "no-newline" in layout else "\n")
    return text.replace("\n", "\r\n") if "crlf" in layout else text


@given(text=_kernel_texts())
@example(text="QKERNEL 1\ngoedel 1 3\n0 . 0\n")  # a lone '.'
@example(text="QKERNEL 1\ngoedel 2 2\n0 0 0\n0\n")  # rows of the wrong length, the right count
@example(text="QKERNEL 1\ngoedel 1 2\n0\x010\n")  # a control byte that is no separator
# a separator the scan refuses and the dense path reads as whitespace
@example(text="QKERNEL 1\ngoedel 1 2\n0.5\x1f0.5\n")
@example(text="QKERNEL 1\ngoedel 1 8\n0 0 0 0 0 0 0 1.2.3\n")  # loadtxt rejects a scanned token
@example(text="QKERNEL 1\n# c\ngoedel 2 8\n\n0 0 0 0 0 0 0 1\n# c\n0 0 0 0 0 0 0 0")
@example(text="QKERNEL 1\ngoedel 1 8\n0 0 0 0 0 0 0 1\u00e9\n")
def test_body_scan_matches_the_dense_path(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("scan") / "k.qk"
    path.write_bytes(text.encode("utf-8"))
    assert _kernel_outcome(read_kernel, path) == _kernel_outcome(_read_dense, path)


# the flaws a body of uniform rows may carry, one at a time
_UNIFORM_FLAWS = ["spelling", "tab", "double-space", "trailing-space", "move", "drop", "-0",
                  "1.2.3", "no-newline"]


@st.composite
def _uniform_texts(draw):
    """A body of one zero spelling and single spaces, with at most one flaw, and a block size.

    With a small block size the body spans several blocks, and the flaw sits in the last one.
    """
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    z = draw(st.sampled_from(_ZERO_SPELLINGS))
    token = st.sampled_from([z] * 40 + ["1.0", "0.25", "1e-320", "0.505"])
    rows = [draw(st.lists(token, min_size=ny, max_size=ny)) for _ in range(nx)]
    block = draw(st.sampled_from([None, 8, 40]))
    r = nx - 1 if block else draw(st.integers(0, nx - 1))
    flaw, c = draw(st.sampled_from([None] * 3 + _UNIFORM_FLAWS)), draw(st.integers(0, ny - 1))
    if flaw == "spelling":
        rows[r][c] = draw(st.sampled_from([s for s in _ZERO_SPELLINGS if s != z]))
    elif flaw in ("-0", "1.2.3"):
        rows[r][c] = flaw
    elif flaw == "move":
        rows[(r + 1) % nx].append(rows[r].pop())
    elif flaw == "drop":
        rows[r].pop()
    lines = [" ".join(row) for row in rows]
    sep = {"tab": "\t", "double-space": "  "}.get(flaw)
    if sep:
        lines[r] = lines[r].replace(" ", sep, 1) if " " in lines[r] else sep + lines[r]
    if flaw == "trailing-space":
        lines[r] += " "
    text = "\n".join(["QKERNEL 1", f"goedel {nx} {ny}", *lines])
    return text + ("" if flaw == "no-newline" else "\n"), block


@given(case=_uniform_texts())
@example(case=("QKERNEL 1\ngoedel 3 2\n0 0\n0 1.0\n0 0.0\n", 8))  # another spelling, last block
@example(case=("QKERNEL 1\ngoedel 3 2\n0.0 0.0\n0.0 1.0\n0.0\t0.0\n", 8))
@example(case=("QKERNEL 1\ngoedel 2 3\n.0 1.0 .0\n.0 .0 -0\n", 8))
@example(case=("QKERNEL 1\ngoedel 2 2\n0. 0.\n0. 1.2.3\n", None))
@example(case=("QKERNEL 1\ngoedel 2 2\n00 0.25\n00 00", 8))
# a token moved to the row before, in one block: the body's length and row count still hold
@example(case=("QKERNEL 1\ngoedel 3 3\n0.0 0.0 0.0\n0.0 0.0 0.0 1.0\n0.0 0.0\n", None))
def test_uniform_rows_match_the_dense_path(tmp_path_factory, case):
    text, block = case
    path = tmp_path_factory.mktemp("uniform") / "k.qk"
    path.write_bytes(text.encode("ascii"))
    with mock.patch.object(formats, "_ROWS_BLOCK", block or formats._ROWS_BLOCK):
        assert _kernel_outcome(read_kernel, path) == _kernel_outcome(_read_dense, path)


@pytest.mark.parametrize("z", _ZERO_SPELLINGS)
def test_uniform_rows_read_every_zero_spelling(tmp_path, z):
    # a nonzero token first, so the spelling is found further along the first row; few
    # enough nonzero tokens for the one-run-in-8 rule
    rows = [[z] * 12 for _ in range(4)]
    rows[0][0], rows[1][11], rows[3][0], rows[3][1] = "0.5", "1e-3", "1", "0.505"
    path = tmp_path / "k.qk"
    path.write_text("QKERNEL 1\nproduct 4 12\n" + "".join(" ".join(r) + "\n" for r in rows),
                    encoding="ascii")
    data = path.read_bytes()
    x, y, w = formats._uniform_rows(data, formats._head(data, (formats.KERNEL_MAGIC,))[3], 4, 12)
    assert (x.tolist(), y.tolist(), w.tolist()) == ([0, 1, 3, 3], [0, 11, 0, 1], [0.5, 1e-3, 1.0, 0.505])
    assert _kernel_outcome(read_kernel, path) == _kernel_outcome(_read_dense, path)


class _DensePath(Exception):
    """Raised where the dense path would decode the body and split it into lines."""


def _scanned(path) -> bool:
    """Whether the uniform-rows pass, not the dense path, reads the file, in place."""
    with mock.patch.object(formats, "_body", side_effect=_DensePath):
        try:
            read_kernel(path)
        except _DensePath:
            return False
    return True


_ROW1, _ROW0 = "0 0 0 0 0 0 0 0.5", "0 0 0 0 0 0 0 0"


@pytest.mark.parametrize("text, in_place", [
    (f"QKERNEL 1\n# a\n\ngoedel 2 8\n  # b\n \t\n{_ROW1}\n{_ROW0}\n", True),
    # the head's lines break as str.splitlines breaks them; only the rows must end in LF
    (f"QKERNEL 1\r\n# a\x0cgoedel 2 8\r{_ROW1}\n{_ROW0}\n", True),
    (f"QKERNEL 1\ngoedel 2 8\n\t{_ROW0} \n{_ROW1}", False),
    (f"QKERNEL 1\ngoedel 2 8\n{_ROW1}\n# among the rows\n{_ROW0}\n", False),
    (f"QKERNEL 1\ngoedel 2 8\n{_ROW1}\n\n{_ROW0}\n", False),
    (f"QKERNEL 1\ngoedel 2 8\n{_ROW1}\n{_ROW0}\n \t\n", False),
    (f"QKERNEL 1\r\ngoedel 2 8\r\n{_ROW1}\r\n{_ROW0}\r\n", False),
    (f"QKERNEL 1\ngoedel 2 8\n{_ROW1}\r\n{_ROW0}\r\n", False),
    # a fault of the head, raised before the body is offered to either reader
    (f"QKERNEL 1\n# caf\u00e9\ngoedel 2 8\n{_ROW1}\n{_ROW0}\n", ParseError),
], ids=["head-comments-and-blanks", "head-of-other-breaks", "loose-rows-no-final-newline",
        "comment-among-rows", "blank-among-rows", "spaces-line-after-rows", "crlf", "crlf-rows",
        "non-ascii-comment"])
def test_the_byte_scan_reads_only_plain_files_in_place(tmp_path, text, in_place):
    path = tmp_path / "k.qk"
    path.write_bytes(text.encode("utf-8"))
    if in_place is ParseError:
        with pytest.raises(ParseError, match="'ascii' codec can't decode byte 0xc3") as err:
            _scanned(path)
        assert err.value.offset == len("QKERNEL 1\n# caf")
    else:
        assert _scanned(path) is in_place
    assert _kernel_outcome(read_kernel, path) == _kernel_outcome(_read_dense, path)


@pytest.mark.parametrize("bad, fragment", [
    ("0.0.0", "row 63 holds a non-numeric token"),
    ("", "row 63 has 1099 values, expected 1100"),
], ids=["token", "row-length"])
def test_a_fault_in_the_last_scan_block_is_reported(tmp_path, bad, fragment):
    # 64 rows of 1100 zeros span several blocks; only the last row is bad
    rows = ["0.0 " * 1099 + "0.0"] * 63 + ["0.0 " * 1099 + bad]
    path = tmp_path / "k.qk"
    path.write_text("QKERNEL 1\ngoedel 64 1100\n" + "\n".join(rows) + "\n", encoding="ascii")
    assert len(rows[0]) * 64 > formats._ROWS_BLOCK
    with pytest.raises(ParseError, match=fragment):
        read_kernel(path)
    assert _kernel_outcome(read_kernel, path) == _kernel_outcome(_read_dense, path)


def test_a_body_of_nonzero_tokens_takes_the_dense_path(tmp_path):
    rng = np.random.default_rng(8)
    p = Kernel(PRODUCT, IndexSet(40), IndexSet(30), rng.uniform(0.01, 1.0, (40, 30)))
    path = tmp_path / "k.qk"
    write_kernel(path, p)
    assert not _scanned(path)
    back, _ = read_kernel(path)
    for name in ("row_idx", "row_w", "col_idx", "col_w"):
        assert np.array_equal(getattr(back, name), getattr(p, name))


def _sparse_and_chain(tmp_path):
    """The 2 % random weights, written with repr, and the 1100-row chain, as files."""
    rng = np.random.default_rng(9)
    values = rng.uniform(0.0, 1.0, (300, 400)) * (rng.random((300, 400)) < 0.02)
    for name, p in (("sparse", Kernel(LUKASIEWICZ, IndexSet(300), IndexSet(400), values)),
                    ("chain", chain_kernel(GOEDEL, 1100))):
        path = tmp_path / f"{name}.qk"
        write_kernel(path, p)
        yield path


def test_a_sparse_body_of_uniform_rows_is_read_bit_for_bit(tmp_path):
    # both files span several blocks of uniform rows and are read in place
    for path in _sparse_and_chain(tmp_path):
        assert path.stat().st_size > formats._ROWS_BLOCK
        assert _scanned(path)
        assert _kernel_outcome(read_kernel, path) == _kernel_outcome(_read_dense, path)


# weights whose repr holds an exponent or 17 digits; each splits into at most
# 3 runs of bytes above '0', and a row of 24 tokens leaves room for 3
_REPR_WEIGHTS = [1.0, 0.5, 1e-05, 2.5e-300, 0.30000000000000004, 0.12345678901234568]


@pytest.mark.parametrize("block", [None, 1], ids=["one-block", "a-block-per-row"])
@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_write_kernel_files_of_one_weight_per_row_are_read_in_place(tmp_path, q, block):
    # the contract the in-place read rests on: write_kernel's file of a kernel
    # with at most one nonzero per row and |Y| = 24 takes the uniform-rows pass
    weights = [1.0] if q is BOOLEAN else _REPR_WEIGHTS
    x = 2 * np.arange(len(weights))  # every other row is all zeros
    y = np.resize([0, 23, 11], len(weights))
    path = tmp_path / "k.qk"
    write_kernel(path, Kernel(q, IndexSet(2 * len(weights)), IndexSet(24), entries=(x, y, np.array(weights))))
    with mock.patch.object(formats, "_ROWS_BLOCK", block or formats._ROWS_BLOCK):
        assert _scanned(path)
        assert _kernel_outcome(read_kernel, path) == _kernel_outcome(_read_dense, path)


def test_a_row_of_more_runs_than_one_in_8_tokens_takes_the_dense_path(tmp_path):
    # the pass's work grows with the runs of bytes above '0', not with the tokens,
    # so the run count is its cost guard: 0.1020304050607081 is one token of 8
    # runs, and a row of 24 tokens leaves room for 3
    path = tmp_path / "k.qk"
    x = np.arange(48)
    write_kernel(path, Kernel(GOEDEL, IndexSet(48), IndexSet(24),
                              entries=(x, x % 24, np.full(48, 0.1020304050607081))))
    with mock.patch.object(formats, "_ROWS_BLOCK", 1):  # a block per row
        assert not _scanned(path)
        assert _kernel_outcome(read_kernel, path) == _kernel_outcome(_read_dense, path)


def test_scanning_the_chain_body_never_builds_the_dense_matrix(tmp_path):
    n = 1100
    path = tmp_path / "chain.qk"
    write_kernel(path, chain_kernel(GOEDEL, n))
    data = path.read_bytes()
    with mock.patch.object(formats, "_body", side_effect=_DensePath):  # in place, or it raises
        tracemalloc.start()
        try:
            p = Kernel(**formats.read_qkernel(data)[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert classify(p).level is KernelLevel.NORMAL
    assert peak < n * n * 8, f"parsing peaked at {peak} bytes"


def test_loading_the_chain_file_peaks_below_one_and_a_half_times_its_size(tmp_path):
    # the bytes are read once and scanned in blocks, so the file's own bytes
    # are most of the peak
    path = tmp_path / "chain.qk"
    write_kernel(path, chain_kernel(GOEDEL, 1100))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load_kernel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size, f"load_kernel peaked at {peak} bytes for a {size}-byte file"


# --- layout and format boundaries ----------------------------------------------

def test_only_transform_names_the_kernel_layout():
    # the stored ELL arrays are transform.py's own: other modules go through Kernel
    layout = {"_ell", "row_idx", "row_w", "col_idx", "col_w"}
    checked = []
    for path in sorted(Path(qimg.__file__).parent.glob("*.py")):
        if path.name == "transform.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # identifiers, attribute and import names, and string constants alike
        named = {v for node in ast.walk(tree) for _, v in ast.iter_fields(node) if isinstance(v, str)}
        assert not named & layout, f"{path.name} names {sorted(named & layout)}"
        checked.append(path.name)
    assert "compression.py" in checked


def test_only_formats_holds_the_file_text():
    # the magic lines and the QKERNEL 1 reader's helpers are formats.py's own: the
    # other modules build their values from the parts its readers return
    magics = {"QKERNEL 1", "QCODEBOOK 1", "QSEL 1"}
    helpers = {"_head", "_body", "_uniform_rows", "_token_edges"}
    checked = []
    for path in sorted(Path(qimg.__file__).parent.glob("*.py")):
        if path.name == "formats.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {v for node in ast.walk(tree) for _, v in ast.iter_fields(node) if isinstance(v, str)}
        # a magic line inside a longer string (an f-string, a docstring) counts too
        lines = {ln.strip() for v in named for ln in v.splitlines()}
        assert not named & helpers, f"{path.name} names {sorted(named & helpers)}"
        assert not lines & magics, f"{path.name} holds {sorted(lines & magics)}"
        checked.append(path.name)
    assert {"transform.py", "compression.py", "morphology.py"} <= set(checked)


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def test_every_kernel_passes_its_constructor():
    # no module builds a Kernel through _unchecked, so each kernel's family
    # is the one its weights were checked under
    checked = []
    for path in sorted(Path(qimg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bypass = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _name(node.func) == "_unchecked"
                  and node.args and _name(node.args[0]) == "Kernel"]
        assert not bypass, f"{path.name} lines {bypass} build a Kernel through _unchecked"
        checked.append(path.name)
    assert "transform.py" in checked
