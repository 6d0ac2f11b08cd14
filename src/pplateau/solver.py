"""Constrained minimization of weighted mass minus boundary pairing.

The problem: over integer m-chains T with boundary(T - T0) a subcurrent of a
prescribed (m-1)-chain B, minimize H-weighted mass minus the pairing of a
fixed cochain with boundary(T). Once the pairing is folded into per-cell
linear terms the energy separates per m-cell, and the constraint is one
integer box per (m-1)-cell on the signed sum over its `CellComplex.cofaces`:
exactly the input of the branch-and-bound engine in `pplateau.search`.

Coefficient caps are either supplied or derived from the energy budget of the
reference chain T0: any T whose energy does not exceed T0's has weighted mass
at most h_mass(T0) + mass(B) * comass(phi), which bounds each coefficient
through the cost's upper inverse. T0 is always admissible, so the derived
box provably contains every minimizer. The caps are the box a solution
reports (and `bounds_active` refers to); the search runs on the domains
inside it that bounds-consistency propagation over the per-edge rows leaves,
which drops only values no admissible chain in the box takes.

Minimizer lists come out lex-sorted. The exhaustive oracle enumerates the
cap box from the definitions, as `certify` checks a solution: the cellwise
subcurrent rule on boundary(T - T0), and `energy`. It shares only the caps
with `solve`, so the two routes are set-comparable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Mapping, Optional, Union

from .complexes import CellComplex, Chain, Cochain, boundary
from .errors import DomainError, SearchSpaceError
from .functionals import EnergyValue, Integrand, comass, energy, h_mass, mass
from .numeric import Number, check_int, strictly_less, values_equal
from .search import _propagate, search
from .subcurrent import boundary_box, is_subcurrent_cellwise

DEFAULT_MINIMIZER_LIMIT = 64
ORACLE_LIMIT = 100_000_000

Caps = Union[int, Mapping[str, int]]


@dataclass(frozen=True)
class Problem:
    cx: CellComplex
    dim: int
    budget_chain: Chain   # B: prescribed boundary budget, dimension dim-1
    reference: Chain      # T0: admissible reference chain, dimension dim
    phi: Cochain          # cochain paired against boundary(T), dimension dim-1
    h: Integrand

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("problem dimension must be >= 1")
        if self.budget_chain.dim != self.dim - 1:
            raise DomainError("boundary budget must live one dimension below the problem")
        if self.reference.dim != self.dim:
            raise DomainError("reference chain must have the problem dimension")
        if self.phi.dim != self.dim - 1:
            raise DomainError("cochain must live one dimension below the problem")
        if not self.budget_chain.is_integer or not self.reference.is_integer:
            raise DomainError("budget and reference chains must be integer chains")
        self.cx.check_chain(self.reference)
        self.cx.check_chain(self.budget_chain)
        self.cx.check_cochain(self.phi)


@dataclass(frozen=True)
class Solution:
    minimizers: tuple[Chain, ...]
    value: EnergyValue
    caps: dict[str, int]
    bounds_active: bool   # some minimizer touches its coefficient cap
    truncated: bool       # more minimizers exist than the reporting limit
    nodes_visited: int = 0


def derive_bounds(p: Problem) -> dict[str, int]:
    """Per-cell coefficient caps guaranteed to contain every energy minimizer.

    Budget argument: for admissible T with energy(T) <= energy(T0), the
    boundary pairing differs from T0's by at most mass(B) * comass(phi), so
    the weighted mass of T is at most h_mass(T0) + mass(B) * comass(phi).
    Each single coefficient then satisfies H(|t|) * measure <= budget.
    These caps are the box `solve` reports; it searches the propagated
    domains inside them, which can be far narrower.
    """
    budget = h_mass(p.cx, p.reference, p.h) + mass(p.cx, p.budget_chain) * comass(p.cx, p.phi)
    caps = {}
    cap_of_measure = {}  # upper_inverse is pure; cells of equal measure share a cap
    for cell in p.cx.cells(p.dim):
        if cell.measure == 0:
            raise SearchSpaceError(
                f"zero-measure {p.dim}-cell {cell.name!r} admits no derived cap; "
                "supply explicit caps")
        if cell.measure not in cap_of_measure:
            cap_of_measure[cell.measure] = p.h.upper_inverse(budget / cell.measure)
        caps[cell.name] = cap_of_measure[cell.measure]
    return caps


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None:
        check_int(limit, 1, "minimizer limit")


def _resolve_caps(p: Problem, caps: Optional[Caps]) -> dict[str, int]:
    names = p.cx.cell_names(p.dim)
    if caps is None:
        return derive_bounds(p)
    if not isinstance(caps, Mapping):
        caps = dict.fromkeys(names, check_int(caps, 0, "cap"))
    out = {}
    for name in names:
        if name not in caps:
            raise DomainError(f"missing cap for {p.dim}-cell {name!r}")
        out[name] = check_int(caps[name], 0, f"cap for {name!r}")
    return out


def solve(p: Problem, caps: Optional[Caps] = None,
          max_minimizers: Optional[int] = DEFAULT_MINIMIZER_LIMIT) -> Solution:
    """Branch-and-bound over admissible chains; reports all minimizers (to a limit).

    The m-cells are the variables of `pplateau.search`, over their propagated
    domains (`_propagate`), and each (m-1)-cell's row is held inside its
    boundary box; a cell at t costs H(|t|) * measure - t * phi(boundary(cell)).
    The list is complete unless `truncated` says more exist.
    """
    _check_limit(max_minimizers)
    cap_map = _resolve_caps(p, caps)
    cx, names = p.cx, p.cx.cell_names(p.dim)
    touch = cx.cofaces(p.dim)  # one row per (m-1)-cell; outside boundary_box's keys, [0, 0]
    box = dict.fromkeys(touch, (0, 0)) | boundary_box(cx, p.budget_chain, p.reference)
    domains = _propagate(touch, box, cap_map)

    h = cache(p.h)
    contrib_tab = {}
    for name in names:
        mu = cx.measure(p.dim, name)
        q = sum((p.phi.get(f) * s for f, s in cx.boundary_row(p.dim, name).items()), Fraction(0))
        if not p.h.is_exact:
            mu, q = float(mu), float(q)
        contrib_tab[name] = {v: h(abs(v)) * mu - v * q for v in domains[name]}
    out = search(names, domains, contrib_tab, touch, box, {}, limit=max_minimizers)
    return _solution(p, names, out.found, cap_map, out.truncated, out.nodes)


def exhaustive_oracle(p: Problem, caps: Optional[Caps] = None,
                      max_minimizers: Optional[int] = DEFAULT_MINIMIZER_LIMIT) -> Solution:
    """Full enumeration of the cap box, from the problem's definitions.

    Independent route for cross-checking `solve` on small instances: a chain
    T in the box is admissible when boundary(T - T0) is a cellwise subcurrent
    of B, the predicate `certify` applies, and it is scored by `energy`. No
    box, propagation or search of the solver is used. Refuses boxes larger
    than a safety limit.
    """
    _check_limit(max_minimizers)
    cap_map = _resolve_caps(p, caps)
    cx, names = p.cx, p.cx.cell_names(p.dim)
    if math.prod(2 * cap_map[n] + 1 for n in names) > ORACLE_LIMIT:
        raise SearchSpaceError("cap box too large for exhaustive enumeration")

    dt0 = boundary(cx, p.reference)  # boundary is linear: boundary(T - T0) = boundary(T) - dt0
    best: Optional[Number] = None
    found: list[tuple[int, ...]] = []
    truncated = False
    for combo in itertools.product(*(range(-cap_map[n], cap_map[n] + 1) for n in names)):
        t = Chain(p.dim, dict(zip(names, combo)))
        if not is_subcurrent_cellwise(cx, boundary(cx, t) - dt0, p.budget_chain):
            continue
        value = energy(cx, t, p.h, p.phi).energy
        if best is None or strictly_less(value, best):
            best = value
            found = [combo]
            truncated = False
        elif values_equal(value, best):
            if max_minimizers is None or len(found) < max_minimizers:
                found.append(combo)
            else:
                truncated = True
    return _solution(p, names, found, cap_map, truncated, 0)


def _solution(p: Problem, names: list[str], found: list[tuple[int, ...]],
              cap_map: dict[str, int], truncated: bool, nodes: int) -> Solution:
    if not found:
        raise DomainError("infeasible constraints: no admissible chain in the cap box")
    minimizers = tuple(Chain(p.dim, dict(zip(names, m))) for m in found)
    value = energy(p.cx, minimizers[0], p.h, p.phi)
    active = any(abs(v) == cap_map[n] and cap_map[n] > 0
                 for m in minimizers for n, v in m.coeffs.items())
    return Solution(minimizers, value, cap_map, active, truncated, nodes)


@dataclass(frozen=True)
class CertifyReport:
    ok: bool
    entries: tuple[str, ...]


def certify(p: Problem, s: Solution) -> CertifyReport:
    """Report-only re-check of a solution against the problem's definitions.

    Checks feasibility (integer coefficients, and the boundary constraint by
    the cellwise subcurrent rule the search enforces, so zero-measure cells
    count), energy consistency with the reported value, lexicographic order
    and duplicates. It does not check optimality. It recomputes with the
    plain energy functional, not the search's incremental accounting.
    """
    issues: list[str] = []
    if not s.minimizers:
        issues.append("no minimizers reported")
    seen = set()
    prev_key = None
    for i, t in enumerate(s.minimizers):
        if not t.is_integer:
            issues.append(f"minimizer {i} has non-integer coefficients")
            continue
        d = boundary(p.cx, t - p.reference)
        if not is_subcurrent_cellwise(p.cx, d, p.budget_chain):
            issues.append(f"minimizer {i} violates the boundary constraint")
        ev = energy(p.cx, t, p.h, p.phi)
        if not values_equal(ev.energy, s.value.energy):
            issues.append(f"minimizer {i} has energy {ev.energy} != reported {s.value.energy}")
        key = t.key(p.cx)
        if prev_key is not None and not key > prev_key:
            issues.append(f"minimizer {i} out of lexicographic order")
        prev_key = key
        if key in seen:
            issues.append(f"minimizer {i} duplicated")
        seen.add(key)
    for name, cap in s.caps.items():
        if cap < 0:
            issues.append(f"negative cap on {name!r}")
    return CertifyReport(not issues, tuple(issues))
