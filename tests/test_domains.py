"""Domain membership, canonical order, and bounds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ropas.domains import (
    Boolean,
    Enumerated,
    IntegerRange,
    RealGrid,
    domain_bounds,
    is_finite,
    is_numeric,
)
from ropas.errors import DefinitionError


def test_boolean_values_and_membership():
    d = Boolean()
    assert d.size == 2
    assert d.values() == (0, 1)
    assert d.contains(0) and d.contains(1) and d.contains(True)
    assert not d.contains(2)
    assert not d.contains("yes")
    assert d.canonical(True) == 1
    assert d.index_of(0) == 0 and d.index_of(1) == 1


def test_boolean_rejects_out_of_domain():
    with pytest.raises(DefinitionError):
        Boolean().canonical(2)


def test_integer_range_values_in_order():
    d = IntegerRange(-2, 3)
    assert d.size == 6
    assert d.values() == (-2, -1, 0, 1, 2, 3)
    assert d.index_of(-2) == 0
    assert d.index_of(3) == 5


def test_integer_range_accepts_integral_floats():
    d = IntegerRange(0, 10)
    assert d.contains(4.0)
    assert d.canonical(4.0) == 4
    assert isinstance(d.canonical(4.0), int)
    assert not d.contains(4.5)


def test_integer_range_rejects_bad_bounds():
    with pytest.raises(DefinitionError):
        IntegerRange(5, 2)
    with pytest.raises(DefinitionError):
        IntegerRange(0.5, 2)  # type: ignore[arg-type]


def test_real_grid_points():
    d = RealGrid(0.0, 1.0, 0.25)
    assert d.size == 5
    assert d.values() == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert d.contains(0.75)
    assert not d.contains(0.6)
    assert d.index_of(0.5) == 2


def test_real_grid_snaps_near_misses():
    d = RealGrid(0.0, 1.0, 0.1)
    assert d.contains(0.30000000000000004)
    assert d.canonical(0.30000000000000004) == d.values()[3]


def test_real_grid_rejects_off_grid_upper_bound():
    with pytest.raises(DefinitionError):
        RealGrid(0.0, 1.0, 0.3)
    with pytest.raises(DefinitionError):
        RealGrid(0.0, 1.0, -0.1)
    with pytest.raises(DefinitionError):
        RealGrid(1.0, 0.0, 0.5)


def test_enumerated_keeps_declaration_order():
    d = Enumerated(("sms", "email", "push"))
    assert d.size == 3
    assert d.values() == ("sms", "email", "push")
    assert d.index_of("email") == 1
    assert not d.contains("radio")
    with pytest.raises(DefinitionError):
        d.canonical("radio")


def test_enumerated_rejects_duplicates_and_empty():
    with pytest.raises(DefinitionError):
        Enumerated(("a", "a"))
    with pytest.raises(DefinitionError):
        Enumerated(())


def test_domain_bounds():
    assert domain_bounds(Boolean()) == (0.0, 1.0)
    assert domain_bounds(IntegerRange(-4, 9)) == (-4.0, 9.0)
    assert domain_bounds(RealGrid(0.5, 2.5, 0.5)) == (0.5, 2.5)
    assert domain_bounds(Enumerated((3, 1.5, 7))) == (1.5, 7)
    assert domain_bounds(Enumerated(("a", "b"))) is None


def test_is_numeric():
    assert is_numeric(3) and is_numeric(2.5)
    assert not is_numeric(True)
    assert not is_numeric("3")


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize(
    "domain",
    [Boolean(), IntegerRange(-3, 3), RealGrid(0.0, 1.0, 0.25), Enumerated((1, 2.5, "a"))],
)
def test_no_domain_holds_a_non_finite_value(domain):
    assert not domain.contains(10**400)
    for value in NON_FINITE:
        assert not domain.contains(value)
        with pytest.raises(DefinitionError):
            domain.canonical(value)
        with pytest.raises(DefinitionError):
            domain.index_of(value)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RealGrid(0.0, float("inf"), 1.0), "must be finite"),
        (lambda: RealGrid(float("nan"), 1.0, 0.5), "must be finite"),
        (lambda: RealGrid(0.0, 1.0, float("nan")), "must be finite"),
        (lambda: RealGrid(0.0, 1e300, 1e-300), "too many points"),
        (lambda: RealGrid(-1e308, 1e308, 1.0), "too many points"),
        (lambda: Enumerated((1.0, float("nan"))), "must be finite"),
        (lambda: Enumerated(("a", float("-inf"))), "must be finite"),
    ],
)
def test_domains_reject_non_finite_definitions(make, message):
    with pytest.raises(DefinitionError, match=message):
        make()


def test_is_finite():
    assert is_finite(3) and is_finite(-2.5) and is_finite(10**400)
    assert not any(is_finite(value) for value in (*NON_FINITE, True, "3"))


@given(st.integers(-30, 30), st.integers(0, 20))
def test_integer_range_round_trip(lo, span):
    d = IntegerRange(lo, lo + span)
    values = d.values()
    assert len(values) == d.size
    for i, v in enumerate(values):
        assert d.contains(v)
        assert d.canonical(v) == v
        assert d.index_of(v) == i


@given(
    st.floats(-5.0, 5.0, allow_nan=False),
    st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    st.integers(1, 16),
)
def test_real_grid_round_trip(lo, step, count):
    d = RealGrid(lo, lo + count * step, step)
    values = d.values()
    assert len(values) == d.size == count + 1
    for i, v in enumerate(values):
        assert d.contains(v)
        assert d.canonical(v) == v
        assert d.index_of(v) == i


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
def test_enumerated_round_trip(labels):
    d = Enumerated(tuple(labels))
    for i, v in enumerate(d.values()):
        assert d.contains(v)
        assert d.index_of(v) == i
    lo, hi = domain_bounds(d)
    assert lo == min(labels) and hi == max(labels)
