"""Checks of qfc's JSON reports against closed forms worked out by hand.

Nothing here imports qfc, or numpy: every expected value is computed from
the definition of the input function, with plain complex arithmetic, on a
grid this module builds itself.  A check returns the list of problems it found;
an empty list means the output is right.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

Check = Callable[[dict | None, int], list[str]]

TOL = 1e-8  # qfc's default residual tolerance, which every request uses
MASK = 1e-6  # qfc's default norm_sq masking threshold
REL = 1e-12  # relative tolerance of closed-form comparisons
MAX_PROBLEMS = 5

VERIFY_ITEMS = (
    "hyperholomorphy",
    "product_rule",
    "inverse_system",
    "real_linear_system",
    "sum_pde",
    "product_system",
    "real_combined",
    "meromorphic_substructure",
)

# Labels the theory gives the curated functions: z1*z2 is holomorphic; the
# linear examples and the real-component square have hyperholomorphic
# inverses; (z1, z2) and the antiholomorphic pairs do not.
CURATED_LABELS = {
    "holomorphic_product": "Holomorphic",
    "holomorphic_pair": "Hyperholomorphic",
    "linear_example": "WHypermeromorphic",
    "linear_example_shifted": "WHypermeromorphic",
    "antiholomorphic_linear": "Hyperholomorphic",
    "real_component_square": "WHypermeromorphic",
    "antiholomorphic_pair": "Hyperholomorphic",
}

OFF_GRID_TEXT = "(z1 - 0.3) + (z2 - 0.1) * j"
OFF_GRID_ZERO = (0.3, 0.0, 0.1, 0.0)

Point = tuple[float, float, float, float]


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced floats, bit for bit as numpy.linspace computes them."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def grid(n: int) -> list[Point]:
    """The n**4 lattice of [-1, 1]^4, x1 slowest and y2 fastest."""
    axis = linspace(-1.0, 1.0, n)
    return list(product(axis, axis, axis, axis))


def _key(p) -> tuple[float, ...]:
    return tuple(round(c, 12) for c in p)


def _near(actual: float, expected: float, abs_floor: float = 1e-15) -> bool:
    return abs(actual - expected) <= REL * abs(expected) + abs_floor


def _qmul(p: tuple[complex, complex], q: tuple[complex, complex]) -> tuple[complex, complex]:
    """(a + b j)(c + d j) = (ac - b conj(d)) + (ad + b conj(c)) j."""
    a, b = p
    c, d = q
    return (a * c - b * d.conjugate(), a * d + b * c.conjugate())


def curated_value(name: str, p: Point) -> tuple[complex, complex]:
    """Component values (f1, f2) of a curated function at p."""
    x1, y1, x2, y2 = p
    z1, z2 = complex(x1, y1), complex(x2, y2)
    if name == "holomorphic_product":
        return (z1 * z2, 0j)
    if name == "holomorphic_pair":
        return (z1, z2)
    if name == "linear_example":
        return (complex(2 * (x1 + x2)), complex(2 * (x2 - x1)))
    if name == "linear_example_shifted":
        return (complex(2 * (x1 + x2) + 1.0), complex(2 * (x2 - x1) + 2.0))
    if name == "antiholomorphic_linear":
        c = 1 + 0.5j
        return (c * z1.conjugate() + 0.25, c.conjugate() * z2.conjugate() - 0.75)
    if name == "real_component_square":
        w, s = complex(x1, x2), complex(y1, -y2)
        f = 0.5 + w + 0.4 * w * w - 0.3 * w * s
        return (complex(f.real), complex(f.imag))
    if name == "antiholomorphic_pair":
        return (z1.conjugate(), z2.conjugate())
    raise KeyError(name)


@dataclass(frozen=True)
class CheapFunction:
    """An input of the residuals request whose residuals have closed forms.

    kind selects the closed form; params holds its seeded constants.
    """

    name: str
    text: str
    kind: str
    params: tuple = ()

    def value(self, p: Point) -> tuple[complex, complex]:
        x1, y1, x2, y2 = p
        z1, z2 = complex(x1, y1), complex(x2, y2)
        if self.kind in ("holomorphic_product", "linear_example", "antiholomorphic_pair"):
            return curated_value(self.kind, p)
        if self.kind == "right_combination":
            first, second, alpha, beta = self.params
            members = ((z1, z2), (z1.conjugate(), z2.conjugate()))
            a = _qmul(members[first], (alpha, 0j))
            b = _qmul(members[second], (0j, beta))
            return (a[0] + b[0], a[1] + b[1])
        if self.kind == "control":
            c, d = self.params
            return (c * z2.conjugate(), complex(d))
        raise KeyError(self.kind)

    def scale(self, p: Point) -> float:
        """1 + a bound on the magnitudes of the jet entries at p."""
        h1, h2 = self.value(p)
        if self.kind == "holomorphic_product":
            slope = max(abs(complex(p[0], p[1])), abs(complex(p[2], p[3])))
        elif self.kind == "right_combination":
            slope = max(abs(self.params[2]), abs(self.params[3]))
        elif self.kind == "control":
            slope = abs(self.params[0])
        else:
            slope = 1.0
        return 1.0 + max(abs(h1), abs(h2), slope)

    def expected(self, system: str, p: Point) -> tuple[float, ...] | None:
        """Exact residual row at p, where a closed form is known."""
        x1, y1, x2, y2 = p
        if self.kind == "antiholomorphic_pair":
            n = x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2
            # f^-1 = (z1, -conj(z2)) / N, so the inverse system is
            # (z1 - conj(z1), 0) and the sum PDE is 2 N^2 |D(f^-1)|
            return {
                "hyperholomorphy": (0.0, 0.0),
                "inverse_hyperholomorphy": (2 * abs(y1), 0.0),
                "sum_pde": (2 * abs(y1) * math.sqrt(n),),
            }.get(system)
        if self.kind == "control" and system == "hyperholomorphy":
            # f = c conj(z2) + d j: only d(f1)/d(conj z2) = c is left over
            return (0.0, abs(self.params[0]))
        return None

    def vanishing(self, system: str) -> int | None:
        """Power of scale(p) that bounds a residual the theory says is zero."""
        in_kernel = self.kind in ("holomorphic_product", "linear_example", "right_combination")
        if system == "hyperholomorphy" and in_kernel:
            return 1
        if self.kind in ("holomorphic_product", "linear_example"):
            # both have hyperholomorphic inverses and stay in the class
            # under sums, so the inverse system and the sum PDE vanish
            return {"inverse_hyperholomorphy": 2, "sum_pde": 3, "real_linear": 1}.get(system)
        return None


def _load_problems(doc: dict | None, code: int, command: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if not isinstance(doc, dict):
        return ["no JSON report"]
    if doc.get("command") != command:
        return [f"report of command {doc.get('command')!r}, expected {command!r}"]
    return []


def _names(doc: dict, expected: list[str]) -> list[str]:
    got = [f.get("name") for f in doc.get("functions", [])]
    return [] if got == expected else [f"functions {got}, expected {expected}"]


def _coverage(where: str, report: dict, grid_keys: set, masked_expected: set) -> list[str]:
    """Rows plus masked points must be the grid, and the masked points must
    be exactly those where norm_sq of the function is below MASK."""
    rows = [_key(r["point"]) for r in report["points"]]
    masked = [_key(m["point"]) for m in report["masked"]]
    problems = []
    if len(rows) + len(masked) != len(grid_keys) or set(rows) | set(masked) != grid_keys:
        problems.append(
            f"{where}: {len(rows)} rows + {len(masked)} masked do not cover the "
            f"{len(grid_keys)} grid points"
        )
    if set(masked) != masked_expected or len(masked) != len(masked_expected):
        problems.append(
            f"{where}: {len(masked)} masked points, expected {len(masked_expected)}"
        )
    return problems


def _masked(value: Callable[[Point], tuple[complex, complex]], pts: list[Point]) -> set:
    out = set()
    for p in pts:
        h1, h2 = value(p)
        if abs(h1) ** 2 + abs(h2) ** 2 < MASK:
            out.add(_key(p))
    return out


def classify_check(n: int) -> Check:
    pts = grid(n)
    grid_keys = {_key(p) for p in pts}

    def check(doc: dict | None, code: int) -> list[str]:
        problems = _load_problems(doc, code, "classify")
        if problems:
            return problems
        problems += _names(doc, list(CURATED_LABELS))
        for f in doc.get("functions", []):
            name = f.get("name")
            if name not in CURATED_LABELS:
                continue
            if f.get("label") != CURATED_LABELS[name]:
                problems.append(f"{name}: label {f.get('label')}, expected {CURATED_LABELS[name]}")
            systems = [r["system"] for r in f["reports"]]
            if systems != ["hyperholomorphy", "inverse_hyperholomorphy", "second_component"]:
                problems.append(f"{name}: systems {systems}")
                continue
            masked = _masked(lambda p: curated_value(name, p), pts)
            for r in f["reports"]:
                problems += _coverage(f"{name}/{r['system']}", r, grid_keys, masked)
            bad = 0
            for row in f["reports"][2]["points"]:
                # second_component is |f2| at the point
                if not _near(row["residuals"][0], abs(curated_value(name, row["point"])[1])):
                    bad += 1
            if name == "antiholomorphic_pair":
                # 2 D(f^-1) = (conj(z1) - z1) / N^2 * (z1, z2)
                for row in f["reports"][1]["points"]:
                    x1, y1, x2, y2 = row["point"]
                    n2 = (x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2) ** 2
                    e = (2 * abs(y1) * math.hypot(x1, y1) / n2, 2 * abs(y1) * math.hypot(x2, y2) / n2)
                    if not all(_near(a, b) for a, b in zip(row["residuals"], e)):
                        bad += 1
            if bad:
                problems.append(f"{name}: {bad} rows off their closed forms")
        return problems[:MAX_PROBLEMS]

    return check


def residuals_check(n: int, functions: list[CheapFunction]) -> Check:
    pts = grid(n)
    grid_keys = {_key(p) for p in pts}

    def check(doc: dict | None, code: int) -> list[str]:
        problems = _load_problems(doc, code, "residuals")
        if problems:
            return problems
        problems += _names(doc, [f.name for f in functions])
        for spec, f in zip(functions, doc.get("functions", [])):
            masked = _masked(spec.value, pts)
            real = all(
                abs(h.imag) <= 1e-9
                for p in pts
                if _key(p) not in masked
                for h in spec.value(p)
            )
            systems = ["hyperholomorphy", "inverse_hyperholomorphy", "sum_pde"]
            if real:
                systems.append("real_linear")
            got = [r["system"] for r in f["reports"]]
            if got != systems:
                problems.append(f"{spec.name}: systems {got}, expected {systems}")
                continue
            for r in f["reports"]:
                where = f"{spec.name}/{r['system']}"
                problems += _coverage(where, r, grid_keys, masked)
                power = spec.vanishing(r["system"])
                bad = 0
                for row in r["points"]:
                    p = tuple(row["point"])
                    expected = spec.expected(r["system"], p)
                    if expected is not None:
                        ok = len(expected) == len(row["residuals"]) and all(
                            _near(a, b) for a, b in zip(row["residuals"], expected)
                        )
                    elif power is not None:
                        ok = max(row["residuals"]) <= TOL * spec.scale(p) ** power
                    else:
                        ok = all(math.isfinite(v) and v >= 0.0 for v in row["residuals"])
                    bad += not ok
                if bad:
                    problems.append(f"{where}: {bad} rows off their closed forms")
        return problems[:MAX_PROBLEMS]

    return check


def verify_check(seed: int) -> Check:
    def check(doc: dict | None, code: int) -> list[str]:
        problems = _load_problems(doc, code, "verify-paper")
        if problems:
            return problems
        if doc.get("config", {}).get("seed") != seed:
            problems.append(f"report for seed {doc.get('config', {}).get('seed')}, expected {seed}")
        names = [it.get("name") for it in doc.get("items", [])]
        if names != list(VERIFY_ITEMS):
            problems.append(f"items {names}, expected {list(VERIFY_ITEMS)}")
        failed = [it.get("name") for it in doc.get("items", []) if it.get("passed") is not True]
        if doc.get("all_passed") is not True or failed:
            problems.append(f"not all passed; failed items {failed}")
        return problems

    return check


@dataclass(frozen=True)
class PlantedZero:
    """(z1 - a)^k + (z2 - b)^m j with (a, b) on a grid node: its only zero,
    of order min(k, m), with per-component orders k and m."""

    name: str
    text: str
    node: Point
    k: int
    m: int


def _at(p, q, tol: float = 1e-12) -> bool:
    return len(p) == 4 and max(abs(a - b) for a, b in zip(p, q)) <= tol


def zero_set_check(planted: list[PlantedZero]) -> Check:
    def check(doc: dict | None, code: int) -> list[str]:
        problems = _load_problems(doc, code, "zero-set")
        if problems:
            return problems
        problems += _names(doc, [z.name for z in planted])
        for z, f in zip(planted, doc.get("functions", [])):
            clusters = f.get("clusters", [])
            if f.get("cluster_count") != 1 or len(clusters) != 1:
                problems.append(f"{z.name}: {len(clusters)} clusters, expected 1")
            elif len(clusters[0]) != 1 or not _at(clusters[0][0], z.node):
                problems.append(f"{z.name}: cluster {clusters[0][:3]} is not the node {z.node}")
        return problems[:MAX_PROBLEMS]

    return check


def order_check(planted: list[PlantedZero]) -> Check:
    def check(doc: dict | None, code: int) -> list[str]:
        problems = _load_problems(doc, code, "order")
        if problems:
            return problems
        problems += _names(doc, [z.name for z in planted])
        for z, f in zip(planted, doc.get("functions", [])):
            ests = f.get("estimates", [])
            if len(ests) != 1 or "error" in ests[0]:
                problems.append(f"{z.name}: estimates {ests}, expected one")
                continue
            e = ests[0]
            if e.get("kind") != "zero" or not _at(e.get("location", []), z.node):
                problems.append(f"{z.name}: {e.get('kind')} at {e.get('location')}, expected zero at {z.node}")
            if e.get("display_order") != min(z.k, z.m):
                problems.append(f"{z.name}: order {e.get('display_order')}, expected {min(z.k, z.m)}")
            per = e.get("per_component", [])
            if len(per) != 2 or abs(per[0] - z.k) > 1e-6 or abs(per[1] - z.m) > 1e-6:
                problems.append(f"{z.name}: component orders {per}, expected ({z.k}, {z.m})")
        return problems[:MAX_PROBLEMS]

    return check


def off_grid_order_check(n: int) -> Check:
    """The simple zero of OFF_GRID_TEXT at OFF_GRID_ZERO, which is no grid
    node: one estimate of order 1 within half a grid step of the zero."""
    half_step = 1.0 / (n - 1)

    def check(doc: dict | None, code: int) -> list[str]:
        problems = _load_problems(doc, code, "order")
        if problems:
            return problems
        problems += _names(doc, ["off_grid"])
        for f in doc.get("functions", [])[:1]:
            ests = f.get("estimates", [])
            if len(ests) != 1 or "error" in ests[0]:
                problems.append(f"off_grid: {len(ests)} estimates, expected one of order 1")
                continue
            e = ests[0]
            if e.get("display_order") != 1 or not _at(e.get("location", []), OFF_GRID_ZERO, half_step):
                problems.append(
                    f"off_grid: order {e.get('display_order')} at {e.get('location')}, "
                    f"expected 1 near {OFF_GRID_ZERO}"
                )
        return problems

    return check
