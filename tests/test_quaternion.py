"""Algebraic laws of the complex-pair quaternion representation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from qfc.errors import SingularPointError
from qfc.quaternion import ONE, UNIT_I, UNIT_J, Quaternion, modulus, norm_sq, quat_conj, quat_mul

from jet_oracle import rinv

ABS_TOL = 1e-12
REL_TOL = 1e-9
# Bounded coordinates keep triple products well inside float range.
COORDS = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
COMPLEXES = st.builds(complex, COORDS, COORDS)
QUATERNIONS = st.builds(Quaternion, COMPLEXES, COMPLEXES)


def _close(a: Quaternion, b: Quaternion, tol: float) -> bool:
    return modulus(a - b) <= tol


def test_unit_multiplication_table() -> None:
    k = quat_mul(UNIT_I, UNIT_J)
    assert quat_mul(UNIT_I, UNIT_I) == -ONE
    assert quat_mul(UNIT_J, UNIT_J) == -ONE
    assert quat_mul(k, k) == -ONE
    assert quat_mul(UNIT_I, UNIT_J) == -quat_mul(UNIT_J, UNIT_I)
    assert k == Quaternion(0j, 1j)


@given(z=COMPLEXES)
def test_j_commutes_by_conjugating(z: complex) -> None:
    """j * z equals conj(z) * j for every complex scalar z."""
    left = quat_mul(UNIT_J, Quaternion(z, 0j))
    right = quat_mul(Quaternion(z.conjugate(), 0j), UNIT_J)
    assert left == right == Quaternion(0j, z.conjugate())


@given(a=QUATERNIONS, b=QUATERNIONS, c=QUATERNIONS)
def test_multiplication_is_associative(a: Quaternion, b: Quaternion, c: Quaternion) -> None:
    lhs = quat_mul(quat_mul(a, b), c)
    rhs = quat_mul(a, quat_mul(b, c))
    scale = 1.0 + modulus(a) * modulus(b) * modulus(c)
    assert modulus(lhs - rhs) <= REL_TOL * scale


@given(a=QUATERNIONS, b=QUATERNIONS, c=QUATERNIONS)
def test_multiplication_distributes_over_addition(
    a: Quaternion, b: Quaternion, c: Quaternion
) -> None:
    lhs = quat_mul(a, b + c)
    rhs = quat_mul(a, b) + quat_mul(a, c)
    scale = 1.0 + modulus(a) * (modulus(b) + modulus(c))
    assert modulus(lhs - rhs) <= REL_TOL * scale


@given(a=QUATERNIONS, b=QUATERNIONS)
def test_conjugation_reverses_products(a: Quaternion, b: Quaternion) -> None:
    lhs = quat_conj(quat_mul(a, b))
    rhs = quat_mul(quat_conj(b), quat_conj(a))
    scale = 1.0 + modulus(a) * modulus(b)
    assert modulus(lhs - rhs) <= ABS_TOL * scale


@given(a=QUATERNIONS)
def test_conjugation_is_an_involution(a: Quaternion) -> None:
    assert quat_conj(quat_conj(a)) == a


@given(a=QUATERNIONS, b=QUATERNIONS)
def test_norm_is_multiplicative(a: Quaternion, b: Quaternion) -> None:
    lhs = norm_sq(quat_mul(a, b))
    rhs = norm_sq(a) * norm_sq(b)
    assert lhs == pytest.approx(rhs, rel=REL_TOL, abs=ABS_TOL)


@given(a=QUATERNIONS)
def test_modulus_is_square_root_of_norm_sq(a: Quaternion) -> None:
    assert modulus(a) == pytest.approx(math.sqrt(norm_sq(a)), rel=1e-15)
    assert norm_sq(a) == pytest.approx(
        abs(a.z1) ** 2 + abs(a.z2) ** 2, rel=1e-12, abs=0.0
    )


@given(a=QUATERNIONS)
def test_right_inverse_is_two_sided(a: Quaternion) -> None:
    if norm_sq(a) < 1e-6:
        with pytest.raises(SingularPointError, match="no inverse"):
            rinv(a, 1e-6)
        return
    inv = rinv(a)
    assert _close(quat_mul(a, inv), ONE, REL_TOL)
    assert _close(quat_mul(inv, a), ONE, REL_TOL)


def test_right_inverse_formula_is_scaled_conjugate() -> None:
    q = Quaternion(1 + 2j, 3 - 4j)
    inv = rinv(q)
    n = norm_sq(q)
    assert inv == Quaternion(q.z1.conjugate() / n, -q.z2 / n)


def test_right_inverse_rejects_near_zero_norm() -> None:
    with pytest.raises(SingularPointError, match="no inverse: norm_sq = 0.0"):
        rinv(Quaternion(0j, 0j))
    with pytest.raises(SingularPointError):
        rinv(Quaternion(1e-9 + 0j, 0j), 1e-12)


@given(a=QUATERNIONS, z=COMPLEXES)
def test_scale_matches_left_multiplication_by_complex(a: Quaternion, z: complex) -> None:
    assert a.scale(z) == quat_mul(Quaternion(z, 0j), a)


def test_negation_and_subtraction() -> None:
    q = Quaternion(1 + 2j, 3 - 4j)
    assert -q == Quaternion(-1 - 2j, -3 + 4j)
    assert q - q == Quaternion(0j, 0j)
    assert q + (-q) == Quaternion(0j, 0j)
