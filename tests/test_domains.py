"""Domain membership, canonical order, and bounds."""

import random

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
    assert d.contains(-2) and d.contains(3) and d.contains(True)
    assert not d.contains(-3) and not d.contains(4) and not d.contains("2")


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


LABEL_POOL = ("a", "b", "0", "1", "", 0, 1, 2, -1, 7, 0.0, -0.0, 0.5, 1.5, 2.0, -3.25)
QUERIES = (
    0, 1, 2, -1, 3, 7, 0.0, -0.0, 0.5, 1.0, 1.5, 2.0, -3.25, 0.25,
    True, False, "a", "b", "0", "1", "", "zz", [0], {"a": 1}, (0,),
)


class _UnhashableInt(int):
    """Equal to the int label it wraps, but no dict key."""

    __hash__ = None  # type: ignore[assignment]


def test_membership_refuses_non_numbers_and_scans_for_unhashables():
    grid = RealGrid(0.0, 1.0, 0.25)
    # A string or a bool is no grid point, even where it would compare equal;
    # an int too large for a float and a value that rounds just off either
    # end lie outside.
    for value in ("0.5", True, False, 10**400, -0.2, 1.2):
        assert not grid.contains(value), value
        with pytest.raises(DefinitionError, match="not on grid"):
            grid.canonical(value)
    domain = Enumerated(("a", 0, 1))
    one = _UnhashableInt(1)
    assert domain.contains(one) and domain.index_of(one) == 2 and domain.canonical(one) == 1
    assert not domain.contains([1])
    with pytest.raises(DefinitionError, match="not among enumerated values"):
        domain.index_of([1])


def _tuple_rule(labels, value):
    """(found, position) as a scan of the label tuple gives them."""
    if value in labels:
        return True, labels.index(value)
    return False, None


def _old_bounds(labels):
    """Enumerated bounds as a scan of every label found them."""
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in labels):
        return (min(labels), max(labels))
    return None


def test_enumerated_answers_as_a_scan_of_its_labels():
    rng = random.Random(5)
    for _ in range(300):
        labels = []
        for label in rng.sample(LABEL_POOL, rng.randint(1, len(LABEL_POOL))):
            if label not in labels:  # 0, 0.0 and -0.0 are one value
                labels.append(label)
        if rng.random() < 0.3:  # an all-numeric domain, which has bounds
            labels = [v for v in labels if not isinstance(v, str)] or [0.5]
        labels = tuple(labels)
        domain = Enumerated(labels)
        for value in rng.sample(QUERIES, len(QUERIES)) * 2:  # the second pass reads the cache
            found, position = _tuple_rule(labels, value)
            assert domain.contains(value) is found, (labels, value)
            if found:
                assert domain.index_of(value) == position
                assert domain.canonical(value) is labels[position]
            else:
                with pytest.raises(DefinitionError, match="not among enumerated values"):
                    domain.index_of(value)
                with pytest.raises(DefinitionError, match="not among enumerated values"):
                    domain.canonical(value)
        assert repr(domain_bounds(domain)) == repr(_old_bounds(labels)), labels


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
        (lambda: Enumerated((1, 10**400)), "must be finite"),
        (lambda: IntegerRange(-(10**400), 30), "must fit a float"),
    ],
)
def test_domains_reject_non_finite_definitions(make, message):
    with pytest.raises(DefinitionError, match=message):
        make()


def test_is_finite():
    assert is_finite(3) and is_finite(-2.5) and is_finite(-(10**308))
    assert not any(is_finite(value) for value in (*NON_FINITE, 10**400, -(10**309), True, "3"))


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
