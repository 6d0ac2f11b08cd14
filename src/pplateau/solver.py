"""Constrained minimization of weighted mass minus boundary pairing.

The problem: over integer m-chains T with boundary(T - T0) a subcurrent of a
prescribed (m-1)-chain B, minimize H-weighted mass minus the pairing of a
fixed cochain with boundary(T). The energy separates per m-cell once the
pairing is folded into per-cell linear terms, so branch-and-bound gets exact
lower bounds by summing each free cell's cheapest contribution over its own
coefficient domain; the coupling lives entirely in the per-edge boundary
intervals, enforced incrementally with interval arithmetic.

Coefficient caps are either supplied or derived from the energy budget of the
reference chain T0: any T whose energy does not exceed T0's has weighted mass
at most h_mass(T0) + mass(B) * comass(phi), which bounds each coefficient
through the cost's upper inverse. T0 is always admissible, so the derived
box provably contains every minimizer. The caps are the box a solution
reports (and `bounds_active` refers to); the search runs on the domains
inside it that bounds-consistency propagation over the per-edge rows leaves,
which drops only values no admissible chain in the box takes.

Search visits coefficient vectors in ascending lexicographic order over the
complex's fixed cell order; minimizer lists come out lex-sorted and the
exhaustive oracle filters with the same per-edge predicate, making the two
routes set-comparable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .complexes import CellComplex, Chain, Cochain, boundary
from .errors import DomainError, SearchSpaceError
from .functionals import EnergyValue, Integrand, comass, energy, h_mass, mass
from .numeric import Number, strictly_less, values_equal
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
        if not self.budget_chain.is_zero and self.budget_chain.dim != self.dim - 1:
            raise DomainError("boundary budget must live one dimension below the problem")
        if not self.reference.is_zero and self.reference.dim != self.dim:
            raise DomainError("reference chain must have the problem dimension")
        if not self.phi.is_zero and self.phi.dim != self.dim - 1:
            raise DomainError("cochain must live one dimension below the problem")
        if not self.budget_chain.is_integer or not self.reference.is_integer:
            raise DomainError("budget and reference chains must be integer chains")
        self.cx.check_chain(Chain(self.dim, self.reference.coeffs))
        self.cx.check_chain(Chain(self.dim - 1, self.budget_chain.coeffs))
        self.cx.check_cochain(Cochain(self.dim - 1, self.phi.values))


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
    for cell in p.cx.cells(p.dim):
        if cell.measure == 0:
            raise SearchSpaceError(
                f"zero-measure {p.dim}-cell {cell.name!r} admits no derived cap; "
                "supply explicit caps")
        caps[cell.name] = p.h.upper_inverse(budget / cell.measure)
    return caps


def _resolve_caps(p: Problem, caps: Optional[Caps]) -> dict[str, int]:
    names = p.cx.cell_names(p.dim)
    if caps is None:
        return derive_bounds(p)
    if isinstance(caps, int):
        if caps < 0:
            raise DomainError(f"cap must be >= 0, got {caps}")
        return {name: caps for name in names}
    out = {}
    for name in names:
        if name not in caps:
            raise DomainError(f"missing cap for {p.dim}-cell {name!r}")
        c = caps[name]
        if not isinstance(c, int) or c < 0:
            raise DomainError(f"cap for {name!r} must be a nonnegative integer")
        out[name] = c
    return out


class _Instance:
    """Precomputed per-cell data shared by the search and the oracle."""

    def __init__(self, p: Problem):
        self.p = p
        cx = p.cx
        self.names = cx.cell_names(p.dim)
        box = boundary_box(cx, p.budget_chain, p.reference)
        self.box = box.as_dict()
        exact = p.h.is_exact

        self.mu = {}
        self.q = {}
        self.rows = {}
        for name in self.names:
            mu = cx.measure(p.dim, name)
            row = cx.boundary_row(p.dim, name)
            qv = sum((p.phi.get(f) * s for f, s in row.items()), Fraction(0))
            self.mu[name] = mu if exact else float(mu)
            self.q[name] = qv if exact else float(qv)
            self.rows[name] = row
        self.h_cache: dict[int, Number] = {}

        # Every edge reachable from the cells, plus every edge the box names.
        edges = set(self.box)
        for row in self.rows.values():
            edges.update(row)
        self.edges = sorted(edges)
        for e in self.edges:
            self.box.setdefault(e, (0, 0))

    def h_of(self, k: int) -> Number:
        v = self.h_cache.get(k)
        if v is None:
            v = self.p.h(k)
            self.h_cache[k] = v
        return v

    def contrib(self, name: str, t: int) -> Number:
        return self.h_of(abs(t)) * self.mu[name] - t * self.q[name]


def _quotients(u: int, w: int, s: int) -> tuple[int, int]:
    """The integers t with u <= s * t <= w, as inclusive ends (first > last
    when there are none); dividing by a negative s swaps u and w."""
    if s < 0:
        u, w = w, u
    return -(-u // s), w // s


def _propagate(touch: dict[str, list[tuple[str, int]]], box: dict[str, tuple[int, int]],
               caps: dict[str, int]) -> dict[str, range]:
    """Bounds-consistent coefficient domains inside the cap box.

    Each (m-1)-cell row reads lo <= sum(s * t) <= hi over its cofaces. A term
    s * t can reach at most what the box leaves after the other terms take
    their extremes, so its cell's interval shrinks to that range, rounded
    inward. Rows are revised until none shrinks a domain: the fixed point
    drops only values no admissible chain in the cap box takes, and the loop
    ends because every revision that requeues a row strictly shrinks a finite
    integer interval.
    """
    lo = {name: -cap for name, cap in caps.items()}
    hi = dict(caps)
    rows_of: dict[str, list[str]] = {name: [] for name in caps}
    for e, row in touch.items():
        for name, _ in row:
            rows_of[name].append(e)
    pending = [e for e, row in touch.items() if row]
    queued = set(pending)
    while pending:
        e = pending.pop()
        queued.discard(e)
        blo, bhi = box[e]
        terms = [sorted((s * lo[n], s * hi[n])) for n, s in touch[e]]
        least = sum(a for a, _ in terms)
        most = sum(b for _, b in terms)
        for (n, s), (a, b) in zip(touch[e], terms):
            t_lo, t_hi = _quotients(blo - (most - b), bhi - (least - a), s)
            new_lo = max(lo[n], t_lo)
            new_hi = min(hi[n], t_hi)
            if new_lo > new_hi:
                raise DomainError("infeasible constraints: a cell's coefficient box is empty")
            if (new_lo, new_hi) != (lo[n], hi[n]):
                lo[n], hi[n] = new_lo, new_hi
                for f in rows_of[n]:
                    if f not in queued:
                        queued.add(f)
                        pending.append(f)
    return {name: range(lo[name], hi[name] + 1) for name in caps}


def solve(p: Problem, caps: Optional[Caps] = None,
          max_minimizers: Optional[int] = DEFAULT_MINIMIZER_LIMIT) -> Solution:
    """Branch-and-bound over admissible chains; reports all minimizers (to a limit).

    Each cell branches over its propagated domain (see `_propagate`). Pruning
    is twofold: per-edge interval arithmetic over the unassigned cells'
    domains narrows each branching cell to the values that can still reach
    every boundary box, and the exact separable bound (fixed cells'
    contributions plus each free cell's cheapest value over its domain)
    discards subtrees that cannot strictly beat the incumbent. Subtrees that
    could merely tie are kept, so the minimizer set is complete.
    """
    cap_map = _resolve_caps(p, caps)
    inst = _Instance(p)
    names = inst.names
    box = {e: (int(lo), int(hi)) for e, (lo, hi) in inst.box.items()}

    # Coface index: the cells and incidences of each (m-1)-cell's row.
    touch: dict[str, list[tuple[str, int]]] = {e: [] for e in inst.edges}
    for name in names:
        for e, sign in inst.rows[name].items():
            touch[e].append((name, sign))
    domains = _propagate(touch, box, cap_map)
    for e, (lo, hi) in box.items():
        if not touch[e] and not lo <= 0 <= hi:
            raise DomainError(f"infeasible constraints: edge {e!r} box excludes 0 "
                              "and no cell reaches it")

    contrib_tab = {name: {v: inst.contrib(name, v) for v in domains[name]} for name in names}
    min_contrib = {name: min(tab.values()) for name, tab in contrib_tab.items()}
    suffix_min: list[Number] = [0] * (len(names) + 1)
    for i in range(len(names) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min_contrib[names[i]]

    # Per-edge running state: the assigned cells' partial sum, and the least
    # and greatest sums the unassigned cells' domains can still add. A cell's
    # entries carry its own term's extremes, taken out while it branches, and
    # its edges' boxes.
    entries: dict[str, list[tuple[str, int, int, int, int, int]]] = {}
    psum = {e: 0 for e in inst.edges}
    rest_lo = {e: 0 for e in inst.edges}
    rest_hi = {e: 0 for e in inst.edges}
    for name in names:
        d = domains[name]
        entries[name] = []
        for e, s in inst.rows[name].items():
            a, b = sorted((s * d[0], s * d[-1]))
            entries[name].append((e, s, a, b, *box[e]))
            rest_lo[e] += a
            rest_hi[e] += b

    limit = max_minimizers if max_minimizers is not None else None
    best: Optional[Number] = None
    found: list[dict[str, int]] = []
    truncated = False
    nodes = 0
    assigned: dict[str, int] = {}

    def descend(i: int, acc: Number) -> None:
        nonlocal best, truncated, nodes
        nodes += 1
        if best is not None and strictly_less(best, acc + suffix_min[i]):
            return
        if i == len(names):
            if best is None or strictly_less(acc, best):
                best = acc
                found.clear()
                found.append(dict(assigned))
                truncated = False
            elif values_equal(acc, best):
                if limit is None or len(found) < limit:
                    found.append(dict(assigned))
                else:
                    truncated = True
            return
        name = names[i]
        here = entries[name]
        # The values that keep every edge's reachable range meeting its box.
        d = domains[name]
        first, last = d[0], d[-1]
        for e, s, a, b, lo, hi in here:
            rl = rest_lo[e] - a
            rh = rest_hi[e] - b
            rest_lo[e] = rl
            rest_hi[e] = rh
            v_lo, v_hi = _quotients(lo - psum[e] - rh, hi - psum[e] - rl, s)
            if v_lo > first:
                first = v_lo
            if v_hi < last:
                last = v_hi
        row = inst.rows[name].items()
        tab = contrib_tab[name]
        for v in range(first, last + 1):
            for e, s in row:
                psum[e] += s * v
            assigned[name] = v
            descend(i + 1, acc + tab[v])
            del assigned[name]
            for e, s in row:
                psum[e] -= s * v
        for e, _, a, b, _, _ in here:
            rest_lo[e] += a
            rest_hi[e] += b

    descend(0, Fraction(0) if p.h.is_exact else 0.0)
    if best is None:
        raise DomainError("infeasible constraints: no admissible chain in the cap box")

    minimizers = tuple(Chain(p.dim, m) for m in found)
    value = energy(p.cx, minimizers[0], p.h, p.phi)
    active = any(abs(v) == cap_map[n] and cap_map[n] > 0
                 for m in minimizers for n, v in m.coeffs.items())
    return Solution(minimizers, value, cap_map, active, truncated, nodes)


def exhaustive_oracle(p: Problem, caps: Optional[Caps] = None,
                      max_minimizers: Optional[int] = DEFAULT_MINIMIZER_LIMIT) -> Solution:
    """Full enumeration of the cap box with the same feasibility predicate.

    Independent route for cross-checking `solve` on small instances; refuses
    boxes larger than a safety limit.
    """
    cap_map = _resolve_caps(p, caps)
    inst = _Instance(p)
    names = inst.names

    size = 1
    for name in names:
        size *= 2 * cap_map[name] + 1
        if size > ORACLE_LIMIT:
            raise SearchSpaceError("cap box too large for exhaustive enumeration")
    for e, (lo, hi) in inst.box.items():
        if not any(inst.rows[n].get(e) for n in names) and not lo <= 0 <= hi:
            raise DomainError(f"infeasible constraints: edge {e!r} box excludes 0 "
                              "and no cell reaches it")

    limit = max_minimizers if max_minimizers is not None else None
    best: Optional[Number] = None
    found: list[tuple[int, ...]] = []
    truncated = False
    ranges = [range(-cap_map[n], cap_map[n] + 1) for n in names]
    rows = [list(inst.rows[n].items()) for n in names]

    for combo in itertools.product(*ranges):
        sums: dict[str, int] = {}
        for row, v in zip(rows, combo):
            if v:
                for e, s in row:
                    sums[e] = sums.get(e, 0) + s * v
        feasible = True
        for e, (lo, hi) in inst.box.items():
            if not lo <= sums.get(e, 0) <= hi:
                feasible = False
                break
        if not feasible:
            continue
        acc: Number = Fraction(0) if p.h.is_exact else 0.0
        for name, v in zip(names, combo):
            acc = acc + inst.contrib(name, v)
        if best is None or strictly_less(acc, best):
            best = acc
            found = [combo]
            truncated = False
        elif values_equal(acc, best):
            if limit is None or len(found) < limit:
                found.append(combo)
            else:
                truncated = True

    if best is None:
        raise DomainError("infeasible constraints: no admissible chain in the cap box")
    minimizers = tuple(Chain(p.dim, dict(zip(names, combo))) for combo in found)
    value = energy(p.cx, minimizers[0], p.h, p.phi)
    active = any(abs(v) == cap_map[n] and cap_map[n] > 0
                 for m in minimizers for n, v in m.coeffs.items())
    return Solution(minimizers, value, cap_map, active, truncated)


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
