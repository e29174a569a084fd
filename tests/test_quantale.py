"""Algebraic laws of the four quantale families."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qimg import BOOLEAN, GOEDEL, LUKASIEWICZ, PRODUCT, DomainError, quantale
from qimg.quantale import unit_carrier
from support import ADVERSARIAL, ALL_FAMILIES, REAL_FAMILIES, TOL, close, residuum_oracle

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
bits = st.sampled_from([0.0, 1.0])


def values_for(q):
    return bits if q is BOOLEAN else units


# --- frozen examples ---------------------------------------------------------

def test_unit_is_neutral():
    assert GOEDEL.mul(1.0, 0.37) == 0.37


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_bottom_annihilates(q):
    y = 1.0 if q is BOOLEAN else 0.9
    assert q.mul(0.0, y) == 0.0


def test_lukasiewicz_mul_example():
    # 0.7 * 0.6 = max(0, 0.3); round-trips through the residuum with equality
    assert close(LUKASIEWICZ.mul(0.7, 0.6), 0.3)
    r = LUKASIEWICZ.residuum(0.7, 0.3)
    assert LUKASIEWICZ.mul(0.7, r) <= 0.3 + TOL
    assert close(LUKASIEWICZ.mul(0.7, r), 0.3)


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_residuum_when_x_below_y(q):
    x, y = (0.0, 1.0) if q is BOOLEAN else (0.2, 0.5)
    assert q.residuum(x, y) == 1.0


@pytest.mark.parametrize(
    "q,x,y,expected",
    [(GOEDEL, 0.6, 0.3, 0.3), (LUKASIEWICZ, 0.6, 0.3, 0.7), (PRODUCT, 0.5, 0.25, 0.5)],
    ids=["goedel", "lukasiewicz", "product"],
)
def test_residuum_closed_forms_against_sup_oracle(q, x, y, expected):
    closed = q.residuum(x, y)
    assert close(closed, expected)
    grid_sup = residuum_oracle(q, x, y, 10_000)
    assert expected - 1e-4 <= grid_sup <= expected + TOL
    assert grid_sup <= closed + TOL


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_oracle_everything_qualifies(q):
    assert residuum_oracle(q, 0.0, 0.0, 10) == 1.0


def test_oracle_rejects_empty_grid():
    with pytest.raises(ValueError):
        residuum_oracle(GOEDEL, 0.5, 0.5, 0)


def test_product_residuum_at_zero():
    assert PRODUCT.residuum(0.0, 0.0) == 1.0
    assert PRODUCT.residuum(0.0, 0.7) == 1.0


def test_join_meet_boundaries():
    assert GOEDEL.join([]) == 0.0
    assert GOEDEL.meet([]) == 1.0
    assert GOEDEL.join([0.2, 0.9, 0.5]) == 0.9
    assert GOEDEL.meet([0.2, 0.9, 0.5]) == 0.2


# --- laws --------------------------------------------------------------------

@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_adjunction_exhaustive_on_coarse_grid(q):
    # full 1/64 resolution runs in the acceptance suite
    grid = np.array([0.0, 1.0]) if q is BOOLEAN else np.arange(17) / 16.0
    z, x, y = np.meshgrid(grid, grid, grid, indexing="ij")
    lhs = q.mul(z, x) <= y + TOL
    rhs = z <= q.residuum(x, y) + TOL
    assert np.array_equal(lhs, rhs)


@given(x=units, ys=st.lists(units, max_size=6))
def test_distributivity_over_joins(x, ys):
    for q in REAL_FAMILIES:
        left = q.mul(x, q.join(ys))
        right = q.join([q.mul(x, y) for y in ys])
        assert close(left, right)


@given(x=units, y=units, z=units)
def test_monoid_laws(x, y, z):
    for q in REAL_FAMILIES:
        assert close(q.mul(q.mul(x, y), z), q.mul(x, q.mul(y, z)))
        assert close(q.mul(1.0, x), x)
        assert close(q.mul(x, y), q.mul(y, x))


@given(x=units, y=units, z=units)
def test_mul_monotone(x, y, z):
    lo, hi = min(y, z), max(y, z)
    for q in REAL_FAMILIES:
        assert q.mul(x, lo) <= q.mul(x, hi) + TOL


@pytest.mark.parametrize("q", ALL_FAMILIES, ids=lambda q: q.family)
def test_weight_monotonicity_is_exact_on_floats(q):
    # morphology folds an offset again at every lighter weight level; that is
    # exact only while, as the weight grows, mul(., a) never falls and
    # residuum(., a) never rises, the Lukasiewicz unit guards included
    if q is BOOLEAN:
        values = np.array([0.0, 1.0])
    else:
        base = np.concatenate([ADVERSARIAL, np.random.default_rng(73).uniform(0.0, 1.0, 24)])
        near = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, 1.0)])
        values = unit_carrier(np.unique(near), "weights")  # the carrier keeps no subnormal
    v, w, a = np.meshgrid(values, values, values, indexing="ij")
    lighter = v <= w
    assert np.all(q._mul(v, a)[lighter] <= q._mul(w, a)[lighter])
    assert np.all(q._residuum(v, a)[lighter] >= q._residuum(w, a)[lighter])


@given(x=units, y=units)
@example(x=5e-324, y=0.0)  # product: 0.5 * 5e-324 underflows to 0, unless flushed
@example(x=1e-323, y=5e-324)  # subnormal on both sides
def test_oracle_under_approximates_closed_form(x, y):
    for q in REAL_FAMILIES:
        closed = q.residuum(x, y)
        grid_sup = residuum_oracle(q, x, y, 1000)
        assert grid_sup <= closed + TOL
        assert closed - grid_sup <= 1e-3 + TOL


@given(x=bits, y=bits)
def test_boolean_closure(x, y):
    assert BOOLEAN.mul(x, y) in (0.0, 1.0)
    assert BOOLEAN.residuum(x, y) in (0.0, 1.0)
    assert BOOLEAN.join([x, y]) in (0.0, 1.0)
    assert BOOLEAN.meet([x, y]) in (0.0, 1.0)


def test_boolean_rejects_fractions():
    with pytest.raises(DomainError):
        BOOLEAN.mul(0.5, 1.0)
    with pytest.raises(DomainError):
        BOOLEAN.residuum(1.0, 0.25)
    # a subnormal too: flushed before the check, it would pass as a Boolean 0
    with pytest.raises(DomainError):
        BOOLEAN.mul(5e-324, 1.0)
    with pytest.raises(DomainError):
        BOOLEAN.residuum(1.0, 5e-324)


def test_unit_carrier_flushes_subnormals_and_negative_zero_only():
    for tiny in (5e-324, 2e-308, -0.0):  # each beside exact zeros, which alone need no flush
        arr = np.array([0.0, tiny, 1.0, 0.0, 0.5])
        assert unit_carrier(arr, "values") is arr
        assert arr.tobytes() == np.array([0.0, 0.0, 1.0, 0.0, 0.5]).tobytes()
    # exact 0s and 1s, a binary raster's values, come back bit for bit
    binary = (np.random.default_rng(89).random((64, 48)) < 0.5).astype(float)
    assert unit_carrier(binary.copy(), "pixel values").tobytes() == binary.tobytes()


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_unit_interval_enforced(bad):
    with pytest.raises(DomainError):
        GOEDEL.mul(bad, 0.5)


def test_family_lookup():
    assert quantale("lukasiewicz") is LUKASIEWICZ
    with pytest.raises(ValueError):
        quantale("frank")
