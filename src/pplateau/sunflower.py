"""Disk-and-petals benchmark scenario with closed-form minimizers.

The complex: a central 2-cell (the disk) whose boundary is a cycle of inner
edges, plus one petal 2-cell per inner edge whose boundary swaps that edge
for an outer arc. The prescribed boundary budget puts multiplicity 2 on the
inner circle, oriented against the disk's boundary, and multiplicity 1 on
the arcs; dropping arcs gives the partial variant in which the affected
petals are pinned to coefficient 0.

Admissible chains are a*disk + sum c_i*petal_i with c_i in {0, 1} and
0 <= c_i - a <= 2, so a ranges over {-2, -1, 0, 1}. With the mass energy
(identity cost) the optimizer switches family as the disk pairing crosses
three thresholds; petals split into negative / neutral / positive classes by
the sign of area minus pairing, and the neutral ones make the middle-family
minimizers degenerate (any subset may be included).

Closed forms hold for the identity cost; `as_problem` exposes the same data
to the general solver for cross-checking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import CellComplex, Chain, Cochain
from .errors import DomainError
from .functionals import Integrand, energy
from .numeric import to_fraction
from .solver import Problem, Solution


@dataclass(frozen=True)
class SunflowerScenario:
    cx: CellComplex
    petals: int
    disk: str
    petal_cells: tuple[str, ...]
    inner_edges: tuple[str, ...]
    arc_edges: tuple[str, ...]
    budget_chain: Chain
    phi: Cochain
    petal_pairings: tuple[Fraction, ...]
    disk_pairing: Fraction
    dropped: frozenset[int]  # petal indices whose arc is missing from the budget

    def feasible(self, i: int) -> bool:
        return i not in self.dropped

    def disk_area(self) -> Fraction:
        return self.cx.measure(2, self.disk)

    def petal_area(self, i: int) -> Fraction:
        return self.cx.measure(2, self.petal_cells[i])


def build_sunflower(petals: int, petal_pairings: Sequence, disk_pairing, *,
                    disk_area=1, petal_areas: Optional[Sequence] = None,
                    inner_lengths: Optional[Sequence] = None,
                    arc_lengths: Optional[Sequence] = None,
                    dropped_arcs: Sequence[int] = ()) -> SunflowerScenario:
    """Assemble the scenario complex, budget chain and pairing cochain.

    The pairing data is realized by a cochain that spreads the disk pairing
    evenly over the inner edges; each arc then carries its petal's pairing on
    top of that share. Areas and lengths default to 1 and 2*pi/k.
    """
    k = petals
    if k < 1:
        raise DomainError("need at least one petal")
    pairings = [to_fraction(v) for v in petal_pairings]
    if len(pairings) != k:
        raise DomainError(f"expected {k} petal pairings, got {len(pairings)}")
    d = to_fraction(disk_pairing)
    areas = [to_fraction(v) for v in (petal_areas or [1] * k)]
    if len(areas) != k:
        raise DomainError(f"expected {k} petal areas, got {len(areas)}")
    default_len = to_fraction(2 * math.pi / k)
    inner = [to_fraction(v) for v in (inner_lengths or [default_len] * k)]
    arcs = [to_fraction(v) for v in (arc_lengths or [default_len] * k)]
    if len(inner) != k or len(arcs) != k:
        raise DomainError("edge length lists must match the petal count")
    dropped = frozenset(dropped_arcs)
    if any(not 0 <= i < k for i in dropped):
        raise DomainError("dropped arc index out of range")

    cx = CellComplex()
    verts = [f"v{i + 1}" for i in range(k)]
    inner_edges = [f"inner{i + 1}" for i in range(k)]
    arc_edges = [f"arc{i + 1}" for i in range(k)]
    petal_cells = [f"petal{i + 1}" for i in range(k)]
    for v in verts:
        cx.add_cell(0, v, 1)
    for i in range(k):
        cx.add_cell(1, inner_edges[i], inner[i])
    for i in range(k):
        cx.add_cell(1, arc_edges[i], arcs[i])
    cx.add_cell(2, "disk", to_fraction(disk_area), label="disk")
    for i in range(k):
        cx.add_cell(2, petal_cells[i], areas[i], label="petal")

    # Arcs run counterclockwise with the petal boundaries; inner edges run
    # clockwise, i.e. with the budget's inner circle and against the disk
    # boundary. This way the budget chain is positive everywhere.
    for i in range(k):
        ccw_head, ccw_tail = verts[(i + 1) % k], verts[i]
        cx.add_face(1, arc_edges[i], ccw_head, 1)
        cx.add_face(1, arc_edges[i], ccw_tail, -1)
        cx.add_face(1, inner_edges[i], ccw_head, -1)
        cx.add_face(1, inner_edges[i], ccw_tail, 1)
        cx.add_face(2, "disk", inner_edges[i], -1)
        cx.add_face(2, petal_cells[i], arc_edges[i], 1)
        cx.add_face(2, petal_cells[i], inner_edges[i], 1)

    # Budget: multiplicity 2 on the inner circle, 1 on each surviving arc.
    budget = {e: 2 for e in inner_edges}
    for i in range(k):
        if i not in dropped:
            budget[arc_edges[i]] = 1
    b = Chain(1, budget)

    share = d / k
    values = {inner_edges[i]: -share for i in range(k)}
    for i in range(k):
        values[arc_edges[i]] = pairings[i] + share
    phi = Cochain(1, values)

    return SunflowerScenario(cx, k, "disk", tuple(petal_cells), tuple(inner_edges),
                             tuple(arc_edges), b, phi, tuple(pairings), d, dropped)


@dataclass(frozen=True)
class PetalClasses:
    negative: tuple[int, ...]  # area < pairing: including the petal lowers energy
    neutral: tuple[int, ...]   # area = pairing: inclusion is free
    positive: tuple[int, ...]  # area > pairing: inclusion costs energy


def classify_petals(s: SunflowerScenario) -> PetalClasses:
    neg, neu, pos = [], [], []
    for i in range(s.petals):
        gap = s.petal_area(i) - s.petal_pairings[i]
        (neg if gap < 0 else neu if gap == 0 else pos).append(i)
    return PetalClasses(tuple(neg), tuple(neu), tuple(pos))


@dataclass(frozen=True)
class RegimeThresholds:
    """Disk-pairing values where the optimal family changes.

    Below `lower` the doubly reversed disk wins; between `lower` and `middle`
    the reversed disk plus the profitable petals; between `middle` and `upper`
    the petals alone; above `upper` the disk plus all petals. At a threshold
    the adjacent families tie. In the partial variant `upper` is computed the
    same way but plays no role: the full disk-plus-petals chain is infeasible
    and the third regime extends upward without bound.
    """

    lower: Fraction
    middle: Fraction
    upper: Fraction


def thresholds(s: SunflowerScenario) -> RegimeThresholds:
    classes = classify_petals(s)
    a_disk = s.disk_area()
    neg_sum = sum((s.petal_area(i) - s.petal_pairings[i]
                   for i in classes.negative if s.feasible(i)), Fraction(0))
    pos_sum = sum((s.petal_area(i) - s.petal_pairings[i]
                   for i in classes.positive if s.feasible(i)), Fraction(0))
    return RegimeThresholds(-a_disk + neg_sum, -a_disk, a_disk + pos_sum)


def active_regimes(s: SunflowerScenario) -> list[int]:
    """Disk coefficients of the optimal families at the scenario's disk pairing."""
    t = thresholds(s)
    d = s.disk_pairing
    out = []
    if d <= t.lower:
        out.append(-2)
    if t.lower <= d <= t.middle:
        out.append(-1)
    if t.middle <= d and (s.dropped or d <= t.upper):
        out.append(0)
    if not s.dropped and d >= t.upper:
        out.append(1)
    return out


def closed_form_solutions(s: SunflowerScenario,
                          max_minimizers: Optional[int] = None) -> Solution:
    """All mass-energy minimizers, straight from the threshold analysis.

    Valid for the identity cost. Petals with dropped arcs are pinned to 0;
    neutral feasible petals enter the two middle families freely, giving
    2^(number of free neutrals) minimizers per family; at thresholds the
    adjacent families are merged.
    """
    classes = classify_petals(s)
    free_neutrals = [i for i in classes.neutral if s.feasible(i)]
    chains: list[Chain] = []

    def family(a: int) -> None:
        base = {s.disk: a} if a else {}
        take = [i for i in classes.negative if s.feasible(i)]
        for r in range(len(free_neutrals) + 1):
            for extra in itertools.combinations(free_neutrals, r):
                coeffs = dict(base)
                for i in take:
                    coeffs[s.petal_cells[i]] = 1
                for i in extra:
                    coeffs[s.petal_cells[i]] = 1
                chains.append(Chain(2, coeffs))

    regimes = active_regimes(s)
    if -2 in regimes:
        chains.append(Chain(2, {s.disk: -2}))
    if -1 in regimes:
        family(-1)
    if 0 in regimes:
        family(0)
    if 1 in regimes:
        coeffs = {s.disk: 1}
        for i in range(s.petals):
            coeffs[s.petal_cells[i]] = 1
        chains.append(Chain(2, coeffs))

    chains.sort(key=lambda c: c.key(s.cx))
    truncated = False
    if max_minimizers is not None and len(chains) > max_minimizers:
        chains = chains[:max_minimizers]
        truncated = True
    h = Integrand.identity()
    values = [energy(s.cx, c, h, s.phi) for c in chains]
    for ev in values[1:]:
        if ev.energy != values[0].energy:
            raise DomainError("internal inconsistency: closed-form families do not tie")
    return Solution(tuple(chains), values[0], {}, False, truncated)


def as_problem(s: SunflowerScenario, h: Optional[Integrand] = None) -> Problem:
    return Problem(s.cx, 2, s.budget_chain, Chain(2), s.phi,
                   h if h is not None else Integrand.identity())
