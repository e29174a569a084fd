"""Pointwise module structure on Q^X."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from qimg import (
    GOEDEL,
    LUKASIEWICZ,
    Codebook,
    DomainError,
    GridImage,
    IndexSet,
    ModuleElement,
    ShapeError,
    bottom,
    constant,
    delta,
    identity_kernel,
    join_elems,
    scalar_mul,
    scalar_residuum,
)
from support import REAL_FAMILIES, close, residuum_oracle

N = 6
IDX = IndexSet(N)

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
elements = arrays(float, N, elements=units).map(lambda v: ModuleElement(IDX, v))

# 1/64-grid values: closed forms and comparisons are exact there, so the
# adjunction can be asserted as a strict iff
units64 = st.integers(min_value=0, max_value=64).map(lambda k: k / 64.0)
elements64 = arrays(float, N, elements=units64).map(lambda v: ModuleElement(IDX, v))


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(0)
    with pytest.raises(ShapeError):
        IndexSet(6, (2, 2))
    assert IndexSet(6, (2, 3)).shape == (2, 3)
    # sizes are integers, NumPy's included
    with pytest.raises(ShapeError, match="2.5"):
        IndexSet(2.5)
    with pytest.raises(ShapeError, match="2.0"):
        IndexSet(4, (2.0, 2.0))
    assert IndexSet(np.int64(4), (np.int32(2), 2)).shape == (2, 2)
    # a bool is an int to Python, but not a size
    with pytest.raises(ShapeError, match="True"):
        IndexSet(True)
    with pytest.raises(ShapeError, match="True"):
        IndexSet(1, (True, True))


def test_element_values_validated():
    with pytest.raises(DomainError):
        ModuleElement(IDX, [0.1] * (N - 1) + [1.2])
    with pytest.raises(ShapeError):
        ModuleElement(IDX, [0.1] * (N + 1))


@pytest.mark.parametrize("build, message", [
    (lambda: Codebook(identity_kernel(GOEDEL, IndexSet(4))), "codebook kernels need 2-D shapes"),
    (lambda: GridImage(np.zeros(4)), "non-empty 2-D pixel array"),
    (lambda: GridImage(np.zeros((0, 3))), "non-empty 2-D pixel array"),
    (lambda: GridImage.from_element(bottom(IndexSet(4))), "carries no 2-D shape"),
    (lambda: GridImage(np.zeros((2, 2))) <= GridImage(np.zeros((1, 4))),
     r"images shaped \(2, 2\) and \(1, 4\)"),
], ids=["codebook-unshaped", "image-1d", "image-empty", "unshaped-element", "compare-shapes"])
def test_shaped_views_reject_unshaped_or_mismatched_input(build, message):
    with pytest.raises(ShapeError, match=message):
        build()


def test_element_values_frozen():
    f = constant(IDX, 0.4)
    with pytest.raises(ValueError):
        f.values[0] = 0.9


def test_bottom_and_delta():
    assert np.array_equal(bottom(IndexSet(4)).values, [0, 0, 0, 0])
    assert np.array_equal(delta(IndexSet(3), 1).values, [0, 1, 0])
    with pytest.raises(IndexError):
        delta(IndexSet(3), 3)


def test_deltas_cover_index():
    covered = join_elems([delta(IDX, x) for x in range(N)])
    assert np.array_equal(covered.values, np.ones(N))


def test_join_examples():
    idx = IndexSet(2)
    f = ModuleElement(idx, [0.2, 0.8])
    g = ModuleElement(idx, [0.5, 0.1])
    assert np.array_equal(join_elems([f, g]).values, [0.5, 0.8])
    assert np.array_equal(join_elems([f]).values, f.values)
    assert np.array_equal(join_elems([f, f, f]).values, f.values)


def test_join_requires_matching_index():
    with pytest.raises(ShapeError):
        join_elems([bottom(IndexSet(2)), bottom(IndexSet(3))])
    # same size but different grid tagging still does not compose
    with pytest.raises(ShapeError):
        join_elems([bottom(IndexSet(4)), bottom(IndexSet(4, (2, 2)))])
    with pytest.raises(ValueError):
        join_elems([])


def test_scalar_mul_examples():
    f = ModuleElement(IndexSet(2), [1.0, 0.6])
    assert close(scalar_mul(LUKASIEWICZ, 0.5, f).values, [0.5, 0.1])
    g = constant(IDX, 0.7)
    assert np.array_equal(scalar_mul(GOEDEL, 1.0, g).values, g.values)
    assert np.array_equal(scalar_mul(GOEDEL, 0.0, g).values, bottom(IDX).values)
    assert np.array_equal(scalar_mul(GOEDEL, 0.7, bottom(IDX)).values, bottom(IDX).values)


def test_scalar_mul_on_delta_places_the_scalar():
    out = scalar_mul(GOEDEL, 0.3, delta(IndexSet(3), 2))
    assert np.array_equal(out.values, [0.0, 0.0, 0.3])


def test_scalar_residuum_examples():
    f = ModuleElement(IndexSet(2), [0.3, 0.8])
    out = scalar_residuum(GOEDEL, 0.6, f)
    assert np.array_equal(out.values, [0.3, 1.0])
    # agree with the grid sup oracle pointwise
    for v, got in zip(f.values, out.values):
        assert abs(residuum_oracle(GOEDEL, 0.6, v, 10_000) - got) <= 1e-4 + 1e-12
    g = constant(IDX, 0.25)
    assert np.array_equal(scalar_residuum(GOEDEL, 1.0, g).values, g.values)
    assert np.array_equal(scalar_residuum(GOEDEL, 0.0, g).values, np.ones(N))


@given(a=units, b=units, f=elements)
def test_action_associates_with_mul(a, b, f):
    for q in REAL_FAMILIES:
        left = scalar_mul(q, q.mul(a, b), f)
        right = scalar_mul(q, a, scalar_mul(q, b, f))
        assert close(left.values, right.values)


@given(a=units, b=units, f=elements, g=elements)
def test_action_distributes_over_joins(a, b, f, g):
    for q in REAL_FAMILIES:
        assert close(
            scalar_mul(q, a, join_elems([f, g])).values,
            join_elems([scalar_mul(q, a, f), scalar_mul(q, a, g)]).values,
        )
        assert close(
            scalar_mul(q, q.join([a, b]), f).values,
            join_elems([scalar_mul(q, a, f), scalar_mul(q, b, f)]).values,
        )


@given(a=units64, f=elements64, g=elements64)
def test_pointwise_adjunction(a, f, g):
    for q in REAL_FAMILIES:
        assert (scalar_mul(q, a, g) <= f) == (g <= scalar_residuum(q, a, f))
