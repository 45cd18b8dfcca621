"""CArray against CPython's complex arithmetic, bit for bit.

Every operation of the grid type must give the bits the running
interpreter gives for the same operands, signed zeros and infinities
included, and a NaN part exactly where the interpreter gives one.  The
sign bit of a NaN is not compared: which operand's NaN the hardware passes
on depends on how each side was compiled (CPython's own float `+` returns
its second operand's NaN, numpy's its first), and no report can see it,
since a point with a NaN value is masked.  Where the interpreter raises,
the point must be flagged on the array's events instead.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from qfc.jets import OVERFLOW, SINGULAR, CArray, PointEvents, maximum
from qfc.quaternion import square

INF, NAN = math.inf, math.nan
PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -3.0, math.pi, 1.5e-310, -5e-324, 1e200, -1e200, 1.7e308, -1.7e308, INF, -INF, NAN)
_rng = np.random.default_rng(20260418)
VALUES = [complex(r, i) for r in PARTS for i in PARTS] + [
    complex(*(_rng.standard_normal(2) * 10.0 ** _rng.integers(-300, 300, 2))) for _ in range(200)
]
# divisors with |re| == |im|, zero and subnormal divisors, and NaN parts
DIVISORS = VALUES + [complex(a, b) for a in (1.0, -2.0, 3e-310, INF, NAN) for b in (a, -a)]


def _bits(x: float) -> bytes | str:
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def _complex_bits(z: complex) -> tuple:
    return _bits(z.real), _bits(z.imag)


def _array_bits(a: CArray) -> list[tuple]:
    n = max(len(a.real), len(a.imag))
    re, im = np.broadcast_to(a.real, (n,)).tolist(), np.broadcast_to(a.imag, (n,)).tolist()
    return [(_bits(x), _bits(y)) for x, y in zip(re, im)]


def _scalar(op, *args):
    """op on Python scalars, or the exception type it raises."""
    try:
        return op(*args)
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


def _check(op, left: list, right: list | None = None, raises: type | None = None) -> None:
    """op on CArrays (or on a float array, for real operands) equals op on
    each pair of scalars, and the points where the scalar raises `raises`
    are exactly the flagged ones."""
    events = PointEvents(len(left))
    args = [left] if right is None else [left, right]
    arrays = [
        CArray.of(xs, events) if isinstance(xs[0], complex) else np.array(xs, dtype=float) for xs in args
    ]
    with np.errstate(all="ignore"):
        got = op(*arrays)
    want = [_scalar(op, *xs) for xs in zip(*args)]
    raised = [w is raises for w in want]
    code = {ZeroDivisionError: SINGULAR, OverflowError: OVERFLOW}.get(raises, 0)
    assert events.code.tolist() == [code if r else 0 for r in raised]
    got_bits = _array_bits(got)
    for k, w in enumerate(want):
        if not raised[k]:
            assert got_bits[k] == _complex_bits(w), (op, [xs[k] for xs in args], w)


def _pairs(a: list, b: list) -> tuple[list, list]:
    return [x for x in a for _ in b], [y for _ in a for y in b]


@pytest.mark.parametrize(
    "op",
    [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b],
    ids=["add", "sub", "mul"],
)
def test_ring_operations_match_cpython(op) -> None:
    _check(op, *_pairs(VALUES, VALUES))


def test_division_matches_cpython_and_flags_zero_divisors() -> None:
    left, right = _pairs(VALUES, DIVISORS)
    _check(lambda a, b: a / b, left, right, raises=ZeroDivisionError)


@pytest.mark.parametrize(
    "op",
    [lambda a: -a, lambda a: a.conjugate()],
    ids=["neg", "conjugate"],
)
def test_unary_operations_match_cpython(op) -> None:
    _check(op, VALUES)


def test_abs_matches_cpython_and_flags_overflow() -> None:
    events = PointEvents(len(VALUES))
    with np.errstate(all="ignore"):
        got = abs(CArray.of(VALUES, events)).tolist()
    for k, z in enumerate(VALUES):
        want = _scalar(abs, z)
        assert (events.code[k] == OVERFLOW) == (want is OverflowError)
        if want is not OverflowError:
            assert _bits(got[k]) == _bits(want), z
    assert OVERFLOW in events.code


@pytest.mark.parametrize("n", [*range(8), 30, 101])
def test_integer_powers_match_cpython_and_flag_overflow(n: int) -> None:
    _check(lambda a: a**n, VALUES, raises=OverflowError)


def test_real_operands_are_promoted_as_cpython_does() -> None:
    reals = [float(x) for x in PARTS]
    left, right = _pairs(reals, VALUES)
    _check(lambda x, z: x * z, left, right)
    for op in (lambda z, x: z * x, lambda z, x: z + x, lambda z, x: z - x, lambda z, x: z / x):
        _check(op, right, left, raises=ZeroDivisionError)
    for s in (0.5, -2.0, 3, 1j, complex(-0.0, INF)):
        _check(lambda z: s * z, VALUES)
        _check(lambda z: z * s, VALUES)
        _check(lambda z: z - s, VALUES)


def test_square_and_maximum_follow_python_floats() -> None:
    xs = [abs(float(x)) for x in PARTS] + [1.4e154, 1.5e154, 1e-160, 3.0000000000000004]
    xs += (np.abs(_rng.standard_normal(2000)) * 10.0 ** _rng.integers(-160, 160, 2000)).tolist()
    got = square(np.array(xs)).tolist()
    for x, g in zip(xs, got):
        want = _scalar(lambda v: v**2, x)
        assert _bits(g) == _bits(INF if want is OverflowError else want)
    a, b = _pairs(list(PARTS), list(PARTS))
    got = maximum(np.array(a), np.array(b), np.array(b[::-1])).tolist()
    for k, g in enumerate(got):
        assert _bits(g) == _bits(max(a[k], b[k], b[::-1][k]))


def test_a_point_keeps_its_first_event_within_the_scope() -> None:
    events = PointEvents(4)
    events.flag(np.array([True, False, False, False]), SINGULAR)
    huge = CArray.of([complex(1.5e308, 1.5e308)] * 4, events)
    with events.only(np.array([True, True, False, True])), np.errstate(all="ignore"):
        abs(huge)
    abs(CArray.of([1j] * 4, events))
    assert events.code.tolist() == [SINGULAR, OVERFLOW, 0, OVERFLOW]
