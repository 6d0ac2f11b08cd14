"""Flat norms and flat distances on a cell complex.

The real flat norm of an m-chain T minimizes mass(T - boundary(S)) + mass(S)
over real-coefficient fillings S supported on the (m+1)-cells. That is a
linear program, solved exactly over the rationals; the returned certificate
carries the optimal filling, the remainder R = T - boundary(S), and the dual
cochain proving optimality by weak duality.

The weighted flat distance replaces mass by the concave-cost mass on both
terms and restricts S to integer coefficients within a cap. It is solved by
branch-and-bound whose bounds come from interval reasoning on the achievable
remainders (if a cell's remainder can reach 0 it contributes nothing,
otherwise the endpoint nearest zero wins because the cost increases in
|multiplicity|). The integral flat distance is its case H = identity.

The search visits filling vectors in ascending lexicographic order over the
complex's cell order, so the first optimum found is the lexicographically
least one and results are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import CellComplex, Chain, Cochain, boundary, pair, unit_chain
from .errors import DomainError, SearchSpaceError
from .functionals import Integrand, h_mass, mass
from .lp import OPTIMAL, solve_lp
from .numeric import Number, strictly_less, values_equal

ENUMERATION_LIMIT = 100_000_000


@dataclass(frozen=True)
class FlatCertificate:
    value: Number
    filling: Chain    # S, one dimension above T
    remainder: Chain  # R = T - boundary(S)
    cap: Optional[int] = None
    cap_active: bool = False
    dual: Optional[Cochain] = None  # optimality witness for the real variant


class _FlatLP:
    """Shared LP builder: rows per m-cell, split variables for R and S."""

    def __init__(self, cx: CellComplex, dim: int):
        self.cx = cx
        self.dim = dim
        self.sigmas = cx.cell_names(dim)
        self.taus = cx.cell_names(dim + 1)
        self.sigma_pos = {name: i for i, name in enumerate(self.sigmas)}
        # Boundary columns of each (dim+1)-cell restricted to the row order.
        self.tau_cols = {
            tau: {self.sigma_pos[f]: s for f, s in cx.boundary_row(dim + 1, tau).items()}
            for tau in self.taus
        }
        self.ncols = 2 * len(self.sigmas) + 2 * len(self.taus)

    def cost(self) -> list[Fraction]:
        mu_s = [self.cx.measure(self.dim, n) for n in self.sigmas]
        mu_t = [self.cx.measure(self.dim + 1, n) for n in self.taus]
        out: list[Fraction] = []
        for mu in mu_s:
            out += [mu, mu]
        for mu in mu_t:
            out += [mu, mu]
        return out

    def rows(self, t: Chain) -> tuple[list[list[Fraction]], list[Fraction]]:
        n_s = len(self.sigmas)
        rows = []
        rhs = []
        for i, name in enumerate(self.sigmas):
            row = [Fraction(0)] * self.ncols
            row[2 * i] = Fraction(1)
            row[2 * i + 1] = Fraction(-1)
            for j, tau in enumerate(self.taus):
                d = self.tau_cols[tau].get(i, 0)
                if d:
                    row[2 * n_s + 2 * j] = Fraction(d)
                    row[2 * n_s + 2 * j + 1] = Fraction(-d)
            rows.append(row)
            rhs.append(Fraction(t.get(name)))
        return rows, rhs

    def filling_from(self, x) -> Chain:
        n_s = len(self.sigmas)
        vals = {}
        for j, tau in enumerate(self.taus):
            v = x[2 * n_s + 2 * j] - x[2 * n_s + 2 * j + 1]
            if v != 0:
                vals[tau] = v
        return Chain(self.dim + 1, vals)

    def pin_row(self, tau: str) -> list[Fraction]:
        n_s = len(self.sigmas)
        j = self.taus.index(tau)
        row = [Fraction(0)] * self.ncols
        row[2 * n_s + 2 * j] = Fraction(1)
        row[2 * n_s + 2 * j + 1] = Fraction(-1)
        return row


def flat_norm_real(cx: CellComplex, t: Chain) -> FlatCertificate:
    """Exact real flat norm with a dual optimality certificate.

    The optimal filling is made canonical by re-minimizing each coefficient in
    cell order over the optimal face, so ties resolve to the lexicographically
    least optimal filling. This is one LP run: after the base optimum, columns
    with positive reduced cost are fixed at zero and each coefficient is
    minimized by phase 2 from the current basis (see `lp`). A coefficient that
    is unbounded on the face (zero-measure cells) keeps the base solution's
    value; if that pin conflicts with the earlier ones, the filling is the
    base solution's.
    """
    cx.check_chain(t)
    dim = t.dim
    lp = _FlatLP(cx, dim)
    rows, rhs = lp.rows(t)
    res = solve_lp(lp.cost(), rows, rhs, lex=[lp.pin_row(tau) for tau in lp.taus])
    if res.status != OPTIMAL:
        raise DomainError(f"flat norm LP unexpectedly {res.status}")
    dual = Cochain(dim, {name: res.y[i] for i, name in enumerate(lp.sigmas) if res.y[i] != 0})
    filling = lp.filling_from(res.x)
    remainder = t - boundary(cx, filling)
    return FlatCertificate(res.value, filling, remainder, dual=dual)


def verify_real_certificate(cx: CellComplex, t: Chain, cert: FlatCertificate) -> bool:
    """Exact re-check of a real flat-norm certificate, independent of the solver.

    Confirms the remainder identity, the claimed value, and weak duality: the
    dual cochain is bounded by cell measures, its coboundary by (m+1)-cell
    measures, and it pairs with T to the claimed value.
    """
    if cert.dual is None:
        return False
    if cert.remainder != t - boundary(cx, cert.filling):
        return False
    if mass(cx, cert.remainder) + mass(cx, cert.filling) != cert.value:
        return False
    y = cert.dual
    for cell in cx.cells(t.dim):
        if abs(y.get(cell.name)) > cell.measure:
            return False
    for tau in cx.cells(t.dim + 1):
        cob = pair(y, boundary(cx, unit_chain(t.dim + 1, tau.name)))
        if abs(cob) > tau.measure:
            return False
    return pair(y, t) == cert.value


def flat_distance_integral(cx: CellComplex, t1: Chain, t2: Chain, cap: int) -> FlatCertificate:
    """Integral flat distance between two integer chains.

    The minimum of mass(R) + mass(S) over integer fillings S with
    |coefficient| <= cap: the weighted distance with H = identity. When the
    optimal filling touches the cap the result is only an upper bound for the
    uncapped distance, and the certificate says so.
    """
    return h_flat_distance(cx, t1, t2, Integrand.identity(), cap)


def h_flat_distance(cx: CellComplex, t1: Chain, t2: Chain, h: Integrand, cap: int) -> FlatCertificate:
    """Flat distance with both terms weighted by a concave multiplicity cost.

    Depth-first search over integer fillings with |coefficient| <= cap, in
    lexicographic order. The objective is concave in each coefficient, so
    instead of an LP the bound tracks, per m-cell, the interval of remainders
    reachable from the still-free filling coefficients: a cell whose interval
    straddles zero can cost nothing, otherwise its cheapest value sits at the
    endpoint nearest zero. Fixed cells contribute exactly. A subtree is pruned
    unless its bound is strictly below the incumbent, so the first optimum
    found is the lexicographically least.
    """
    t = t1 - t2
    if not t.is_integer:
        raise DomainError("flat distance needs integer chains")
    cx.check_chain(t)
    if cap < 0:
        raise DomainError(f"cap must be >= 0, got {cap}")
    dim = t.dim
    sigmas = cx.cell_names(dim)
    taus = cx.cell_names(dim + 1)
    touching: dict[str, dict[str, int]] = {name: {} for name in sigmas}
    for tau in taus:
        for face, sign in cx.boundary_row(dim + 1, tau).items():
            touching[face][tau] = sign
    best_value: Optional[Number] = None
    best_s: Optional[Chain] = None
    h_of: dict[int, Number] = {}  # h(j) for the integer multiplicities met so far

    def cost(j: int) -> Number:
        if j not in h_of:
            h_of[j] = h(j)
        return h_of[j]

    def lower_bound(assigned: dict[str, int]) -> Number:
        lb: Number = Fraction(0)
        for name, v in assigned.items():
            if v:
                lb = lb + cost(abs(v)) * cx.measure(dim + 1, name)
        for name in sigmas:
            base = t.get(name)
            spread = 0
            for tau, sign in touching[name].items():
                if tau in assigned:
                    base -= sign * assigned[tau]
                else:
                    spread += abs(sign) * cap
            lo, hi = base - spread, base + spread
            if lo <= 0 <= hi:
                continue
            nearest = min(abs(lo), abs(hi))
            lb = lb + cost(nearest) * cx.measure(dim, name)
        return lb

    def descend(i: int, assigned: dict[str, int]) -> None:
        nonlocal best_value, best_s
        if best_value is not None and not strictly_less(lower_bound(assigned), best_value):
            return
        if i == len(taus):
            s = Chain(dim + 1, dict(assigned))
            v = h_mass(cx, t - boundary(cx, s), h) + h_mass(cx, s, h)
            if best_value is None or strictly_less(v, best_value):
                best_value = v
                best_s = s
            return
        name = taus[i]
        for v in range(-cap, cap + 1):
            assigned[name] = v
            descend(i + 1, assigned)
        del assigned[name]

    descend(0, {})
    assert best_value is not None and best_s is not None
    remainder = t - boundary(cx, best_s)
    active = any(abs(v) == cap for v in best_s.coeffs.values()) and cap > 0
    return FlatCertificate(best_value, best_s, remainder, cap=cap, cap_active=active)


def enumerate_flat_integral(cx: CellComplex, t1: Chain, t2: Chain, cap: int,
                            h: Optional[Integrand] = None) -> FlatCertificate:
    """Exhaustive oracle over the full filling box; small instances only."""
    t = t1 - t2
    if not t.is_integer:
        raise DomainError("integral flat distance needs integer chains")
    cx.check_chain(t)
    dim = t.dim
    taus = cx.cell_names(dim + 1)
    width = 2 * cap + 1
    if width ** max(len(taus), 1) > ENUMERATION_LIMIT:
        raise SearchSpaceError("enumeration box exceeds the safety limit")
    best_value: Optional[Number] = None
    best_s: Optional[Chain] = None
    for combo in itertools.product(range(-cap, cap + 1), repeat=len(taus)):
        s = Chain(dim + 1, dict(zip(taus, combo)))
        r = t - boundary(cx, s)
        if h is None:
            v: Number = mass(cx, r) + mass(cx, s)
        else:
            v = h_mass(cx, r, h) + h_mass(cx, s, h)
        if best_value is None or strictly_less(v, best_value):
            best_value = v
            best_s = s
    assert best_value is not None and best_s is not None
    remainder = t - boundary(cx, best_s)
    active = any(abs(v) == cap for v in best_s.coeffs.values()) and cap > 0
    return FlatCertificate(best_value, best_s, remainder, cap=cap, cap_active=active)


def certificates_agree(a: FlatCertificate, b: FlatCertificate) -> bool:
    return values_equal(a.value, b.value) and a.filling == b.filling
