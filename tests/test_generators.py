"""Deterministic properties of the sample-function generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qfc.analysis import hyperholomorphy_from_jets, real_linear_from_jets
from qfc.expr import ConjVar, RealConst
from qfc.jets import Point4
from qfc.lowering import QFunction
from qfc.quaternion import ONE, Quaternion, norm_sq
from qfc.generators import (
    SeededStream,
    antiholomorphic_linear,
    counterexample_pair,
    curated_hyperholomorphic,
    example_pair,
    random_point,
    random_quaternion,
    random_rational_meromorphic,
    random_real_hyperholomorphic,
    right_combination,
)

from jet_oracle import eval_qfunction, jet_pair, scalar
from random_trees import random_scalar_tree, random_surface_tree

SEED = 3301
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 5]  # of the stream replay tests
ZIGGURAT_R = 3.6541528853610088  # where the ziggurat's tail starts
COORDS = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
POINTS = st.builds(
    lambda a, b, c, d: Point4(complex(a, b), complex(c, d)),
    COORDS, COORDS, COORDS, COORDS,
)
CURATED_NAMES = [
    "holomorphic_product",
    "holomorphic_pair",
    "linear_example",
    "linear_example_shifted",
    "antiholomorphic_linear",
    "real_component_square",
    "antiholomorphic_pair",
]


@given(p=POINTS, a=COORDS, b=COORDS)
def test_example_pair_values(p: Point4, a: float, b: float) -> None:
    f = example_pair(a, b)
    got = eval_qfunction(f, p)
    x1, x2 = p.z1.real, p.z2.real
    assert got.z1 == pytest.approx(2.0 * (x1 + x2) + a, rel=1e-12, abs=1e-12)
    assert got.z2 == pytest.approx(2.0 * (x2 - x1) + b, rel=1e-12, abs=1e-12)
    assert got.z1.imag == 0.0 and got.z2.imag == 0.0


def test_counterexample_pair_structure() -> None:
    assert counterexample_pair() == QFunction(ConjVar("z1"), ConjVar("z2"))


def test_curated_set_names_and_membership() -> None:
    curated = curated_hyperholomorphic()
    assert [name for name, _ in curated] == CURATED_NAMES
    rng = np.random.default_rng(SEED)
    for _, f in curated:
        for _ in range(6):
            assert max(scalar(hyperholomorphy_from_jets(jet_pair(f, random_point(rng))))) <= 1e-10


@given(p=POINTS)
def test_antiholomorphic_linear_is_hyperholomorphic(p: Point4) -> None:
    f = antiholomorphic_linear(1.5 - 0.5j, 0.25 + 0j, -1.0 + 2j)
    assert max(scalar(hyperholomorphy_from_jets(jet_pair(f, p)))) <= 1e-12


def test_real_component_functions_are_real_and_in_the_kernel() -> None:
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        f = random_real_hyperholomorphic(rng)
        p = random_point(rng)
        v = eval_qfunction(f, p)
        assert abs(v.z1.imag) <= 1e-10 * (1.0 + abs(v.z1))
        assert abs(v.z2.imag) <= 1e-10 * (1.0 + abs(v.z2))
        assert max(scalar(hyperholomorphy_from_jets(jet_pair(f, p)))) <= 1e-9
        assert max(scalar(real_linear_from_jets(jet_pair(f, p)))) <= 1e-9


def test_rational_meromorphic_functions_are_scalar_and_nonsingular() -> None:
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        f = random_rational_meromorphic(rng)
        assert f.f2 == RealConst(0.0)
        for _ in range(6):
            p = random_point(rng, -2.0, 2.0)
            assert norm_sq(eval_qfunction(f, p)) > 1e-6
            assert scalar(hyperholomorphy_from_jets(jet_pair(f, p))) == (0.0, 0.0)


def test_right_combination_identity() -> None:
    f = example_pair(0.0, 0.0)
    g = QFunction(ConjVar("z1"), ConjVar("z2"))
    assert right_combination(f, g, ONE, Quaternion(0j, 0j)) == f


def test_right_combination_stays_in_the_kernel() -> None:
    rng = np.random.default_rng(SEED)
    curated = [f for _, f in curated_hyperholomorphic()]
    for _ in range(8):
        f = curated[int(rng.integers(0, len(curated)))]
        g = curated[int(rng.integers(0, len(curated)))]
        h = right_combination(f, g, random_quaternion(rng), random_quaternion(rng))
        for _ in range(3):
            assert max(scalar(hyperholomorphy_from_jets(jet_pair(h, random_point(rng))))) <= 1e-9


def test_random_trees_are_reproducible_and_bounded() -> None:
    a = random_scalar_tree(np.random.default_rng(7), 4)
    b = random_scalar_tree(np.random.default_rng(7), 4)
    assert a == b
    s = random_surface_tree(np.random.default_rng(7), 4)
    t = random_surface_tree(np.random.default_rng(7), 4)
    assert s == t


def test_random_point_respects_bounds() -> None:
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        p = random_point(rng, -0.5, 0.5)
        for c in (p.z1.real, p.z1.imag, p.z2.real, p.z2.imag):
            assert -0.5 <= c <= 0.5


def test_random_quaternion_is_reproducible() -> None:
    a = random_quaternion(np.random.default_rng(3))
    b = random_quaternion(np.random.default_rng(3))
    assert a == b


def _draws(rng, rounds: int) -> list:
    """The generators' draws, interleaved: scalar uniform at each of their
    half-widths, uniform(-1, 1, size=4), and integers(0, n) for n = 1 to 7.
    Floats are compared by their hex text."""
    out: list = []
    for _ in range(rounds):
        for half_width in (1.0, 0.8, 0.02, 0.01):
            out.append(float(rng.uniform(-half_width, half_width)).hex())
        out.append([float(x).hex() for x in rng.uniform(-1, 1, size=4)])
        for n in range(1, 8):
            out.append(int(rng.integers(0, n)))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_the_stream_replays_default_rng(seed: int) -> None:
    """2**200 + 5 has seven 32-bit words, more than SeedSequence's pool of
    four, so its second mixing loop runs."""
    assert _draws(SeededStream(seed), 40) == _draws(np.random.default_rng(seed), 40)


@given(seed=st.integers(min_value=0, max_value=2**130 - 1))
def test_the_stream_replays_default_rng_at_any_seed(seed: int) -> None:
    assert _draws(SeededStream(seed), 3) == _draws(np.random.default_rng(seed), 3)


def test_the_stream_at_seed_0_is_pinned() -> None:
    """default_rng(0)'s first draws, written out, so that a numpy whose
    Generator changes cannot change the reports unseen."""
    s = SeededStream(0)
    assert [s.uniform(-1.0, 1.0).hex() for _ in range(2)] == ["0x1.187f5e7ece140p-2", "-0x1.d77a103be9318p-2"]
    assert (s.integers(0, 7), s.integers(0, 3)) == (2, 0)
    assert [x.hex() for x in s.uniform(-1, 1, size=4)] == [
        "-0x1.ef136127b2f44p-1", "0x1.40c9e9e0b3794p-1", "0x1.a6a965e699006p-1", "0x1.b4c7b7180edb0p-3",
    ]
    assert (s.integers(0, 1), s.integers(0, 6)) == (0, 5)


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("seed", SEEDS)
def test_normal_replays_default_rng(seed: int) -> None:
    assert _hex(SeededStream(seed).normal(size=500)) == _hex(np.random.default_rng(seed).normal(size=500))


@given(seed=st.integers(min_value=0, max_value=2**130 - 1), n=st.integers(min_value=0, max_value=80))
def test_normal_replays_default_rng_at_any_seed(seed: int, n: int) -> None:
    assert _hex(SeededStream(seed).normal(size=n)) == _hex(np.random.default_rng(seed).normal(size=n))


def _mixed(rng, rounds: int) -> list:
    """normal between the draws of _draws, and between an integers draw
    that leaves half of a 64-bit output buffered and the next one."""
    out: list = []
    for _ in range(rounds):
        out += _draws(rng, 1)
        out.append(_hex(rng.normal(size=3)))
        out.append(int(rng.integers(0, 5)))
        out.append(_hex(rng.normal(size=1)))
        out.append(int(rng.integers(0, 5)))
    return out


@pytest.mark.parametrize("seed", [0, 2**64 + 3])
def test_normal_interleaves_with_uniform_and_integers(seed: int) -> None:
    assert _mixed(SeededStream(seed), 30) == _mixed(np.random.default_rng(seed), 30)


class _CountingStream(SeededStream):
    """A SeededStream that counts the 64-bit outputs it takes."""

    __slots__ = ("outputs",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.outputs = 0

    def _next64(self) -> int:
        self.outputs += 1
        return super()._next64()


def test_normal_takes_the_tail_and_rejects_in_a_wedge() -> None:
    """A draw beyond R comes from the tail.  A draw within R takes one
    output on the fast path and two when a wedge keeps it, so one that
    took three or more had a wedge reject a point first.  Seed 15's
    draws also reject a tail point three times."""
    stream, values, tail, rejected = _CountingStream(15), [], 0, 0
    for _ in range(20000):
        before = stream.outputs
        (x,) = stream.normal(size=1)
        values.append(x)
        tail += abs(x) > ZIGGURAT_R
        rejected += abs(x) <= ZIGGURAT_R and stream.outputs - before >= 3
    assert tail > 0 and rejected > 0
    assert _hex(values) == _hex(np.random.default_rng(15).normal(size=20000))


def test_normal_at_seed_0_is_pinned() -> None:
    """default_rng(0)'s first normal draws, written out, so that a numpy
    whose ziggurat changes cannot change order's reports unseen."""
    assert [x.hex() for x in SeededStream(0).normal(size=16)] == [
        "0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3", "0x1.47e57a468b06dp-1", "0x1.adabbec84d4f0p-4",
        "-0x1.1243418e643edp-1", "0x1.7245f95ced1e6p-2", "0x1.4dd2f26bd103cp+0", "0x1.e4e7cbc69bca3p-1",
        "-0x1.684ffc1daaf28p-1", "-0x1.43f2a959cc8bbp+0", "-0x1.3f1dd4920f4fbp-1", "0x1.528adc38b0ce3p-5",
        "-0x1.299a9bc1a2383p+1", "-0x1.c015d809d257ep-3", "-0x1.3ef405142e27ep+0", "-0x1.76ebbf28c26f7p-1",
    ]


def test_a_range_of_one_value_draws_nothing() -> None:
    a, b = SeededStream(9), SeededStream(9)
    assert [a.integers(4, 5) for _ in range(3)] == [4, 4, 4]
    assert (a.integers(0, 5), a.uniform(0.0, 1.0)) == (b.integers(0, 5), b.uniform(0.0, 1.0))


def test_a_negative_seed_is_refused_as_numpy_refuses_it() -> None:
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        SeededStream(-1)
