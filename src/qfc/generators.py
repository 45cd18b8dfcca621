"""Seeded generators of expression trees and component pairs.

Everything draws from a caller-supplied stream with the two methods of
Draws, numpy Generator's uniform and integers, so that runs with the same
seed produce identical functions, points, and constants.  SeededStream(S)
is numpy's default_rng(S) stream for those two draws, replayed in Python
without importing numpy.random; every seeded draw of the package comes
from it.
"""
from __future__ import annotations

from typing import Protocol

from .expr import ConjVar, QExpr, RealConst, Var, const, parse
from .jets import Point4
from .lowering import QFunction, const_qf, lower, product_qf, scale_right_qf, sum_qf
from .quaternion import Quaternion

Z1 = Var("z1")
Z2 = Var("z2")
CZ1 = ConjVar("z1")
CZ2 = ConjVar("z2")

_ZERO = RealConst(0.0)


class Draws(Protocol):
    """The draws the generators make: numpy Generator's uniform(lo, hi)
    and uniform(lo, hi, size=n), and integers(lo, hi)."""

    def uniform(self, lo: float, hi: float, size: int | None = None): ...

    def integers(self, lo: int, hi: int) -> int: ...


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> tuple[int, int]:
    """SeedSequence(seed).generate_state(4, uint64), read as PCG64 reads
    it: the 128-bit initial state and stream selector."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed >> 32 * len(entropy):
        entropy.append(seed >> 32 * len(entropy) & _M32)
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        words.append(value ^ value >> 16)
    u = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]  # little-endian pairs
    return u[0] << 64 | u[1], u[2] << 64 | u[3]


class SeededStream:
    """numpy's default_rng(seed) stream for the draws of Draws, bit for bit.

    default_rng(seed) is PCG64 seeded through SeedSequence(seed).  Each
    64-bit output steps the 128-bit LCG and applies XSL-RR (O'Neill, PCG,
    HMC-CS-2014-0905).  uniform is lo + (hi - lo) * (next64 >> 11) * 2**-53.
    integers is Lemire's bounded draw on 32-bit outputs, which take the low
    half of a 64-bit output and then its buffered high half.  A range of one
    value draws nothing.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        initstate, initseq = _seed_state(seed)
        self._inc = (initseq << 1 | 1) & _M128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def _next_double(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float, size: int | None = None):
        """A float in [lo, hi), or a list of size of them."""
        lo, span = float(lo), float(hi) - float(lo)
        if size is None:
            return lo + span * self._next_double()
        return [lo + span * self._next_double() for _ in range(size)]

    def integers(self, lo: int, hi: int) -> int:
        """An int in [lo, hi), for ranges of at most 2**32 values."""
        n = hi - lo
        if not 0 < n <= 1 << 32:
            raise ValueError(f"integers needs 0 < hi - lo <= 2**32, got {lo}, {hi}")
        if n == 1:
            return lo
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return lo + (m >> 32)


def random_point(rng: Draws, lo: float = -1.0, hi: float = 1.0) -> Point4:
    x = rng.uniform(lo, hi, size=4)
    return Point4.from_reals(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


def random_quaternion(rng: Draws) -> Quaternion:
    a = rng.uniform(-1.0, 1.0, size=4)
    return Quaternion(complex(a[0], a[1]), complex(a[2], a[3]))


def _random_complex(rng: Draws, half_width: float) -> complex:
    return complex(rng.uniform(-half_width, half_width), rng.uniform(-half_width, half_width))


_MONOMIAL_GENS = (Z1, CZ1, Z2, CZ2)


def random_polynomial_component(rng: Draws) -> QExpr:
    """Random polynomial in z1, conj(z1), z2, conj(z2) with small coeffs."""
    out: QExpr = _ZERO
    for _ in range(3):
        term: QExpr = const(_random_complex(rng, 1.0))
        for _ in range(int(rng.integers(0, 3))):
            term = term * _MONOMIAL_GENS[int(rng.integers(0, 4))]
        out = out + term
    return out


def random_polynomial_qf(rng: Draws) -> QFunction:
    return QFunction(
        random_polynomial_component(rng), random_polynomial_component(rng)
    )


_HOLO_EXPONENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _holo_poly(rng: Draws, constant: float, half_width: float) -> QExpr:
    out: QExpr = RealConst(constant)
    for _ in range(5):
        a, b = _HOLO_EXPONENTS[int(rng.integers(0, len(_HOLO_EXPONENTS)))]
        term: QExpr = const(_random_complex(rng, half_width))
        if a:
            term = term * Z1**a
        if b:
            term = term * Z2**b
        out = out + term
    return out


def random_rational_meromorphic(rng: Draws) -> QFunction:
    """(P/Q, 0) with P, Q holomorphic and bounded away from zero on
    [-2, 2]^4, so evaluation never masks there."""
    p = _holo_poly(rng, 1.5, 0.02)
    q = _holo_poly(rng, 2.0, 0.01)
    return QFunction(p / q, _ZERO)


def example_pair(a: float = 0.0, b: float = 0.0) -> QFunction:
    """The linear pair with components 2(x1 + x2) + a and 2(x2 - x1) + b.

    Hyperholomorphic with hyperholomorphic right inverse for any real
    shifts a, b; its zero set for a = b = 0 is {x1 = 0, x2 = 0}.
    """
    f1 = parse("z1 + conj(z1) + z2 + conj(z2)")
    f2 = parse("-z1 - conj(z1) + z2 + conj(z2)")
    return QFunction(f1 + float(a), f2 + float(b))


def counterexample_pair() -> QFunction:
    """The antiholomorphic pair (conj(z1), conj(z2)).

    Satisfies the first-order system exactly, but its right inverse
    does not wherever z1 has nonzero imaginary part.
    """
    return lower(parse("conj(z1) + conj(z2)*j"))


def antiholomorphic_linear(c: complex, d: complex, e: complex) -> QFunction:
    """(c*conj(z1) + d, conj(c)*conj(z2) + e), always in the kernel."""
    return QFunction(
        const(c) * CZ1 + const(d), const(c.conjugate()) * CZ2 + const(e)
    )


def real_component_hyperholomorphic(
    coeffs: dict[tuple[int, int], complex]
) -> QFunction:
    """Real-component pair built from a holomorphic polynomial F(w, s).

    w = x1 + i*x2 and s = y1 - i*y2 as trees in z1, z2 and conjugates;
    the components are Re F and Im F.  Such pairs are hyperholomorphic
    and satisfy the real-component linear system.
    """
    w = const(0.5) * (Z1 + CZ1) + const(0.5j) * (Z2 + CZ2)
    s = const(-0.5j) * (Z1 - CZ1) - const(0.5) * (Z2 - CZ2)
    f: QExpr = _ZERO
    for (a, b), c in sorted(coeffs.items()):
        term: QExpr = const(c)
        if a:
            term = term * w**a
        if b:
            term = term * s**b
        f = f + term
    return QFunction(
        const(0.5) * (f + f.conj()), const(-0.5j) * (f - f.conj())
    )


def random_real_hyperholomorphic(rng: Draws) -> QFunction:
    coeffs: dict[tuple[int, int], complex] = {}
    for _ in range(3):
        a = int(rng.integers(0, 3))
        b = int(rng.integers(0, 3 - a))
        coeffs[(a, b)] = coeffs.get((a, b), 0j) + _random_complex(rng, 0.8)
    return real_component_hyperholomorphic(coeffs)


def curated_hyperholomorphic() -> list[tuple[str, QFunction]]:
    """Named pairs known to satisfy the first-order system, spanning
    the classifier's labels."""
    return [
        ("holomorphic_product", lower(parse("z1*z2"))),
        ("holomorphic_pair", QFunction(Z1, Z2)),
        ("linear_example", example_pair(0.0, 0.0)),
        ("linear_example_shifted", example_pair(1.0, 2.0)),
        ("antiholomorphic_linear", antiholomorphic_linear(1 + 0.5j, 0.25, -0.75)),
        (
            "real_component_square",
            real_component_hyperholomorphic(
                {(0, 0): 0.5, (1, 0): 1.0, (2, 0): 0.4, (1, 1): -0.3}
            ),
        ),
        ("antiholomorphic_pair", counterexample_pair()),
    ]


def right_combination(
    f: QFunction, g: QFunction, lam1: Quaternion, lam2: Quaternion
) -> QFunction:
    """f*lam1 + g*lam2 with quaternion constants acting on the right."""
    return sum_qf(scale_right_qf(f, lam1), scale_right_qf(g, lam2))
