"""Seeded inputs and fixed request lists of the three benchmark workloads.

Every workload is a list of qfc commands, one fresh interpreter each, that
is replayed unchanged pass after pass.  The seed only moves numbers
(coefficients, planted zeros, verify-paper seeds); the shape of every input
file, and so the amount of work in a pass, is the same for every seed.

Standard library only: the harness imports this module, and whatever it
allocates raises the peak RSS that every request process inherits.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import checks

CLASSIFY_GRID = 6
RESIDUALS_GRID = 7
SCAN_GRID = 13
VERIFY_RUNS_PER_PASS = 4
ZERO_SET_FUNCTIONS = 4  # the other five of the nine (k, m) pairs go to `order`

WORKLOADS = ("grid", "verify", "scan")

# The real-component square is Re F + (Im F) j for F(w, s) = 0.5 + w + 0.4 w^2
# - 0.3 w s with w = x1 + i x2 and s = y1 - i y2.
_W = "(0.5 * (z1 + conj(z1)) + 0.5 * i * (z2 + conj(z2)))"
_S = "(-0.5 * i * (z1 - conj(z1)) - 0.5 * (z2 - conj(z2)))"
_F = f"0.5 + {_W} + -0.3 * {_W} * {_S} + 0.4 * {_W}^2"

# The seven pairs of `generators.curated_hyperholomorphic()` as
# (name, unparse(f1), unparse(f2)); `lower(parse(...))` of each definition
# gives back the curated pair exactly (see test_bench.py).
CURATED = (
    ("holomorphic_product", "z1 * z2", "0.0"),
    ("holomorphic_pair", "z1", "z2"),
    ("linear_example", "z1 + conj(z1) + z2 + conj(z2)", "-z1 - conj(z1) + z2 + conj(z2)"),
    (
        "linear_example_shifted",
        "z1 + conj(z1) + z2 + conj(z2) + 1.0",
        "-z1 - conj(z1) + z2 + conj(z2) + 2.0",
    ),
    (
        "antiholomorphic_linear",
        "(1.0 + 0.5 * i) * conj(z1) + 0.25",
        "(1.0 + -0.5 * i) * conj(z2) + -0.75",
    ),
    ("real_component_square", f"0.5 * ({_F} + conj({_F}))", f"-0.5 * i * ({_F} - conj({_F}))"),
    ("antiholomorphic_pair", "conj(z1)", "conj(z2)"),
)


def curated_definitions() -> list[tuple[str, str]]:
    return [(name, f"({f1}) + ({f2}) * j") for name, f1, f2 in CURATED]


@dataclass(frozen=True)
class Request:
    """One qfc command of a pass and the check of its JSON output.

    known_fault names a program fault that makes the check fail on every
    run; such a request counts as failed without making the run incorrect.
    """

    name: str
    args: tuple[str, ...]
    check: checks.Check
    known_fault: str | None = None


def _definitions(lines: list[tuple[str, str]]) -> str:
    return "".join(f"{n} = {e}\n" for n, e in lines)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _signed(rng: random.Random) -> float:
    """A coefficient in +-[0.25, 0.95]: never 0 or 1, so no constant folds away."""
    x = round(rng.uniform(0.25, 0.95), 6)
    return x if rng.random() < 0.5 else -x


def _complex_text(z: complex) -> str:
    return f"({z.real!r} + {z.imag!r} * i)"


def cheap_functions(seed: int) -> list[checks.CheapFunction]:
    """The residuals request's inputs: kernel members, two seeded right-linear
    combinations of kernel members, and a seeded non-member control."""
    rng = _rng("grid", seed)
    cheap = [
        checks.CheapFunction("holomorphic_product", "z1 * z2", "holomorphic_product"),
        checks.CheapFunction(
            "linear_example",
            "(z1 + conj(z1) + z2 + conj(z2)) + (-z1 - conj(z1) + z2 + conj(z2)) * j",
            "linear_example",
        ),
        checks.CheapFunction("antiholomorphic_pair", "conj(z1) + conj(z2) * j", "antiholomorphic_pair"),
    ]
    # f*alpha + g*(beta j) for the kernel members f, g = z1 + z2 j and
    # conj(z1) + conj(z2) j, in both orders
    members = ("z1 + z2 * j", "conj(z1) + conj(z2) * j")
    for k, (first, second) in enumerate(((0, 1), (1, 0))):
        alpha = complex(_signed(rng), _signed(rng))
        beta = complex(_signed(rng), _signed(rng))
        text = (
            f"({members[first]}) * {_complex_text(alpha)} + "
            f"({members[second]}) * {_complex_text(beta)} * j"
        )
        params = (first, second, alpha, beta)
        cheap.append(checks.CheapFunction(f"right_combination_{k}", text, "right_combination", params))
    c, d = _signed(rng), _signed(rng)
    cheap.append(checks.CheapFunction("control", f"{c!r} * conj(z2) + {d!r} * j", "control", (c, d)))
    return cheap


def planted_zeros(seed: int, n: int) -> list[checks.PlantedZero]:
    """The nine (k, m) pairs in seeded order, each with its zero planted on a
    seeded node of the n-point grid."""
    rng = _rng("scan", seed)
    axis = checks.linspace(-1.0, 1.0, n)
    pairs = [(k, m) for k in (1, 2, 3) for m in (1, 2, 3)]
    rng.shuffle(pairs)
    planted = []
    for i, (k, m) in enumerate(pairs):
        node = tuple(axis[rng.randrange(n)] for _ in range(4))
        a, b = complex(node[0], node[1]), complex(node[2], node[3])
        text = f"(z1 - {_complex_text(a)})^{k} + (z2 - {_complex_text(b)})^{m} * j"
        planted.append(checks.PlantedZero(f"planted_{i}_k{k}_m{m}", text, node, k, m))
    return planted


Files = dict[str, str]


def grid_workload(seed: int, workdir: Path) -> tuple[list[Request], Files]:
    curated, residuals = workdir / "curated.txt", workdir / "cheap.txt"
    cheap = cheap_functions(seed)
    files = {
        str(curated): _definitions(curated_definitions()),
        str(residuals): _definitions([(f.name, f.text) for f in cheap]),
    }
    return [
        Request(
            "classify",
            ("classify", "--input", str(curated), "--grid", str(CLASSIFY_GRID)),
            checks.classify_check(CLASSIFY_GRID),
        ),
        Request(
            "residuals",
            ("residuals", "--input", str(residuals), "--grid", str(RESIDUALS_GRID)),
            checks.residuals_check(RESIDUALS_GRID, cheap),
        ),
    ], files


def verify_workload(seed: int, workdir: Path) -> tuple[list[Request], Files]:
    rng = _rng("verify", seed)
    seeds = [rng.randrange(2**31 - 1) for _ in range(VERIFY_RUNS_PER_PASS)]
    return [
        Request(f"verify-paper-{s}", ("verify-paper", "--seed", str(s)), checks.verify_check(s))
        for s in seeds
    ], {}


def scan_workload(seed: int, workdir: Path) -> tuple[list[Request], Files]:
    planted = planted_zeros(seed, SCAN_GRID)
    zero_set_in, order_in = planted[:ZERO_SET_FUNCTIONS], planted[ZERO_SET_FUNCTIONS:]
    zero_set, order, off_grid = (
        workdir / "planted_zero_set.txt", workdir / "planted_order.txt", workdir / "off_grid.txt"
    )
    files = {
        str(zero_set): _definitions([(p.name, p.text) for p in zero_set_in]),
        str(order): _definitions([(p.name, p.text) for p in order_in]),
        str(off_grid): _definitions([("off_grid", checks.OFF_GRID_TEXT)]),
    }
    grid = ("--grid", str(SCAN_GRID))
    return [
        Request("zero-set", ("zero-set", "--input", str(zero_set), *grid), checks.zero_set_check(zero_set_in)),
        Request("order", ("order", "--input", str(order), "--kind", "zero", *grid), checks.order_check(order_in)),
        Request(
            "order-off-grid",
            ("order", "--input", str(off_grid), "--kind", "zero", *grid),
            checks.off_grid_order_check(SCAN_GRID),
            known_fault="order fits around the first grid point of a cluster instead of "
            "the zero, so an off-grid simple zero gets no cluster at the default tolerance",
        ),
    ], files


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Request], Files]:
    """The workload's requests, in the order a pass runs them, and the input
    files they read, as path -> text."""
    builders = {"grid": grid_workload, "verify": verify_workload, "scan": scan_workload}
    return builders[workload](seed, workdir)
