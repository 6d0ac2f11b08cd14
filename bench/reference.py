"""Reference answers computed without the library routes they check.

Each function here works from the benchmark's own description of an input
(petal pairings, grid size, vertex coordinates and weights), never from the
complexes, chains or solvers of `pplateau`. `self_check` runs every reference
on a case worked by hand; the benchmark runs it before any timed operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# Multiplicity costs at the integer multiplicities the workloads use. Perfect
# squares stay exact so that ties between rational energies stay exact.
COSTS = {
    "identity": lambda t: Fraction(t),
    "sqrt": lambda t: Fraction(math.isqrt(t)) if math.isqrt(t) ** 2 == t else math.sqrt(t),
    # The piecewise-linear table through (0, 0), (1, 1), (2, 3/2), (4, 2).
    "table": lambda t: (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(7, 4))[t],
}

TIE_TOL = 1e-9  # the library's stated tolerance for energies that involve floats


def _less(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a < b
    return float(a) < float(b) - TIE_TOL


def _equal(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(float(a) - float(b)) <= TIE_TOL


def sunflower_reference(pairings: Sequence[Fraction], disk_pairing: Fraction,
                        dropped: frozenset, cost: str, disk_area=Fraction(1),
                        petal_area=Fraction(1)) -> tuple[object, int]:
    """Minimum energy and number of minimizers of a sunflower scenario.

    The admissible chains are a*disk + sum c_i*petal_i with a in {-2..1},
    c_i in {0, 1}, 0 <= c_i - a <= 2, and c_i = 0 for a dropped arc. The disk
    boundary pairs to the disk pairing and petal i's boundary to its own
    pairing, so once a is fixed the energy is a sum of per-petal terms: the
    minimum and the count of minimizers of each family come out directly.
    """
    h = COSTS[cost]
    best = None
    count = 0
    for a in (-2, -1, 0, 1):
        total = h(abs(a)) * disk_area - a * disk_pairing
        ways = 1
        for i, p in enumerate(pairings):
            allowed = [c for c in (0, 1) if 0 <= c - a <= 2 and (c == 0 or i not in dropped)]
            if not allowed:
                ways = 0
                break
            terms = [h(c) * petal_area - c * p for c in allowed]
            low = min(terms, key=float)
            total = total + low
            ways *= sum(1 for t in terms if _equal(t, low))
        if ways == 0:
            continue
        if best is None or _less(total, best):
            best, count = total, ways
        elif _equal(total, best):
            count += ways
    return best, count


def sunflower_thresholds(pairings: Sequence[Fraction], dropped: frozenset,
                         disk_area=Fraction(1), petal_area=Fraction(1)) -> tuple:
    """Disk pairings where the optimal family changes under the identity cost."""
    gaps = [petal_area - p for i, p in enumerate(pairings) if i not in dropped]
    lower = -disk_area + sum((g for g in gaps if g < 0), Fraction(0))
    upper = disk_area + sum((g for g in gaps if g > 0), Fraction(0))
    return lower, -disk_area, upper


def grid_outer_flat_norm(n: int) -> Fraction:
    """Real flat norm of the outer boundary of an n x n grid of unit squares.

    Either keep the boundary (mass 4n) or fill it (area n*n); on a planar grid
    the boundary matrix is totally unimodular, so no fractional filling does
    better than the cheaper of the two.
    """
    return Fraction(min(n * n, 4 * n))


def _norm(v: Sequence[Fraction]) -> float:
    return math.sqrt(sum(c * c for c in v))


def polyline_h_mass(points: Sequence[Sequence[Fraction]], weights: Sequence[int],
                    cost: str) -> float:
    """Weighted length of a polyline whose segments meet only at endpoints."""
    h = COSTS[cost]
    total = 0.0
    for (p, q), w in zip(zip(points, points[1:]), weights):
        total += float(h(abs(w))) * _norm([b - a for a, b in zip(p, q)])
    return total


def triangles_h_mass(triangles: Sequence[tuple[Sequence[Sequence[Fraction]], int]],
                     cost: str) -> float:
    """Weighted area of triangles in R^3 that overlap at most in edges."""
    h = COSTS[cost]
    total = 0.0
    for (a, b, c), w in triangles:
        u = [y - x for x, y in zip(a, b)]
        v = [y - x for x, y in zip(a, c)]
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        total += float(h(abs(w))) * _norm(cross) / 2
    return total


def tilted_grid_h_mass(weights: dict[tuple[int, int], int], slope_x: Fraction,
                       slope_y: Fraction, cost: str) -> float:
    """Weighted area of unit grid squares lifted onto z = slope_x*x + slope_y*y.

    Each lifted square is a parallelogram of area sqrt(1 + slope_x^2 + slope_y^2).
    """
    h = COSTS[cost]
    area = math.sqrt(1 + slope_x * slope_x + slope_y * slope_y)
    return sum(float(h(abs(w))) for w in weights.values()) * area


def self_check() -> list[str]:
    """Run every reference on a hand-worked case; return the failures."""
    bad = []
    # One petal with pairing 2, disk pairing 0: families a = -2..1 cost
    # 2, 0, -1, 0, so the petal alone (a = 0, c = 1) is the unique minimizer.
    if sunflower_reference([Fraction(2)], Fraction(0), frozenset(), "identity") != (-1, 1):
        bad.append("sunflower: one profitable petal")
    # Two neutral petals: a = 0 with any subset of petals, energy 0, 4 ways;
    # dropping the first arc pins it and leaves 2 ways.
    if sunflower_reference([Fraction(1)] * 2, Fraction(0), frozenset(), "identity") != (0, 4):
        bad.append("sunflower: neutral ties")
    if sunflower_reference([Fraction(1)] * 2, Fraction(0), frozenset({0}), "identity") != (0, 2):
        bad.append("sunflower: dropped arc")
    # Disk pairing -10 under sqrt: the doubly reversed disk costs sqrt(2) - 20.
    v, c = sunflower_reference([Fraction(1)], Fraction(-10), frozenset(), "sqrt")
    if c != 1 or abs(v - (math.sqrt(2) - 20)) > 1e-12:
        bad.append("sunflower: sqrt reversed disk")
    # Canonical 8-petal pairings 2,2,2,2,1,1,0,0 with unit areas: -5, -1, 3.
    canon = [Fraction(x) for x in (2, 2, 2, 2, 1, 1, 0, 0)]
    if sunflower_thresholds(canon, frozenset()) != (-5, -1, 3):
        bad.append("sunflower: canonical thresholds")
    # One unit square: boundary 4 against area 1.
    if grid_outer_flat_norm(1) != 1 or grid_outer_flat_norm(4) != 16:
        bad.append("grid flat norm")
    # A 3-4-5 segment with weight 2 under sqrt, then under the table cost.
    seg = [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(4))]
    if abs(polyline_h_mass(seg, [2], "sqrt") - 5 * math.sqrt(2)) > 1e-12:
        bad.append("polyline sqrt")
    if polyline_h_mass(seg, [-2], "table") != 7.5:
        bad.append("polyline table")
    # The doubled unit square as two triangles: sqrt(2) under sqrt.
    o, x, xy, y = ((Fraction(a), Fraction(b), Fraction(0)) for a, b in
                   ((0, 0), (1, 0), (1, 1), (0, 1)))
    if abs(triangles_h_mass([((o, x, xy), 2), ((o, xy, y), 2)], "sqrt") - math.sqrt(2)) > 1e-12:
        bad.append("doubled unit square")
    # On z = x/2 + y/3 a unit square has area sqrt(1 + 1/4 + 1/9) = 7/6.
    if abs(tilted_grid_h_mass({(0, 0): 1, (0, 1): 3}, Fraction(1, 2), Fraction(1, 3),
                              "identity") - 4 * 7 / 6) > 1e-12:
        bad.append("tilted grid")
    return bad
