"""Quaternion arithmetic over pairs of complex numbers.

A quaternion q = z1 + z2*j is stored as the complex pair (z1, z2).
Multiplication follows the right-module convention

    (a1 + a2 j)(b1 + b2 j) = (a1 b1 - a2 conj(b2)) + (a1 b2 + a2 conj(b1)) j

which encodes the commutation rule z*j = j*conj(z).  All values are
immutable; every operation returns a fresh instance.  The parts may
also be grid arrays (jets.CArray), for which norm_sq and modulus work
elementwise with Python's float semantics, flagging where it raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OVERFLOW


@dataclass(frozen=True)
class Quaternion:
    z1: complex
    z2: complex

    def __add__(self, other: Quaternion) -> Quaternion:
        return Quaternion(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other: Quaternion) -> Quaternion:
        return Quaternion(self.z1 - other.z1, self.z2 - other.z2)

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.z1, -self.z2)

    def __mul__(self, other: Quaternion) -> Quaternion:
        return quat_mul(self, other)

    def scale(self, a: complex) -> Quaternion:
        """Left multiplication by a complex scalar (a + 0j acting on the left)."""
        return Quaternion(a * self.z1, a * self.z2)

    def conj(self) -> Quaternion:
        return quat_conj(self)


ONE = Quaternion(1 + 0j, 0j)
UNIT_I = Quaternion(1j, 0j)
UNIT_J = Quaternion(0j, 1 + 0j)


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Noncommutative product; associative, and i*j = -j*i falls out."""
    return Quaternion(
        a.z1 * b.z1 - a.z2 * b.z2.conjugate(),
        a.z1 * b.z2 + a.z2 * b.z1.conjugate(),
    )


def quat_conj(q: Quaternion) -> Quaternion:
    return Quaternion(q.z1.conjugate(), -q.z2)


def square(x):
    """Python's float x ** 2, elementwise for an array.

    Python calls libm's pow, which differs in the last bit from x * x,
    np.square and np.power (in 21 of 20,000 random x, numpy 2.4); where
    Python raises OverflowError the array holds inf.
    """
    if not isinstance(x, np.ndarray):
        return x**2
    out = []
    for v in x.tolist():
        try:
            out.append(v**2)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def norm_sq(q: Quaternion) -> float:
    """|z1|^2 + |z2|^2; equals the scalar part of q * conj(q).

    For grid parts, a point where a finite magnitude squares to inf, so
    Python's ** raises OverflowError, is flagged "overflow" on the parts'
    events, as abs flags its own overflow.
    """
    a1, a2 = abs(q.z1), abs(q.z2)
    s1, s2 = square(a1), square(a2)
    if isinstance(s1, np.ndarray):
        q.z1.events.flag((np.isfinite(a1) & np.isinf(s1)) | (np.isfinite(a2) & np.isinf(s2)), OVERFLOW)
    return s1 + s2


def modulus(q: Quaternion) -> float:
    n = norm_sq(q)
    return np.sqrt(n) if isinstance(n, np.ndarray) else math.sqrt(n)
