"""Flat norms and flat distances on a cell complex.

The real flat norm of an m-chain T minimizes mass(T - boundary(S)) + mass(S)
over real-coefficient fillings S supported on the (m+1)-cells. That is a
linear program, solved exactly over the rationals; the returned certificate
carries the optimal filling, the remainder R = T - boundary(S), and the dual
cochain proving optimality by weak duality.

The weighted flat distance replaces mass by the concave-cost mass on both
terms and restricts S to integer coefficients within a cap. It runs on the
branch-and-bound engine of `pplateau.search` (see `h_flat_distance`), so
results are deterministic. The integral flat distance is its case
H = identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, partial
from fractions import Fraction
from typing import Optional

from .complexes import CellComplex, Chain, Cochain, boundary, pair, unit_chain
from .errors import DomainError, SearchSpaceError
from .functionals import Integrand, h_mass, mass
from .lp import OPTIMAL, solve_lp
from .numeric import Number, strictly_less
from .search import search

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

    The least h_mass(R) + h_mass(S), R = t1 - t2 - boundary(S), over integer
    fillings S with |coefficient| <= cap, by `pplateau.search`: its variables
    are the (m+1)-cells, and each m-cell is an unboxed row, the signed sum r of
    its cofaces, costing measure * H(|t - r|). As H increases, a row's least
    cost is 0 when t - r can be 0, else at the end nearest zero.
    """
    t = t1 - t2
    if not t.is_integer:
        raise DomainError("flat distance needs integer chains")
    cx.check_chain(t)
    if cap < 0:
        raise DomainError(f"cap must be >= 0, got {cap}")
    dim = t.dim
    taus = cx.cell_names(dim + 1)
    cost = cache(lambda j: h(j) if j else 0)  # a cell at 0 costs nothing

    def least(target: int, mu: Number, lo: int, hi: int) -> Number:
        if target - hi <= 0 <= target - lo:
            return 0
        return mu * cost(min(abs(target - hi), abs(target - lo)))

    rows: dict[str, list[tuple[str, int]]] = {name: [] for name in cx.cell_names(dim)}
    for tau in taus:
        for face, sign in cx.boundary_row(dim + 1, tau).items():
            rows[face].append((tau, sign))
    values = range(-cap, cap + 1)
    out = search(
        taus, {tau: values for tau in taus},
        {tau: {v: cx.measure(dim + 1, tau) * cost(abs(v)) for v in values} for tau in taus},
        rows, {}, {name: partial(least, t.get(name), cx.measure(dim, name)) for name in rows},
        limit=1)
    best_s = Chain(dim + 1, dict(zip(taus, out.found[0])))
    remainder = t - boundary(cx, best_s)
    value = h_mass(cx, remainder, h) + h_mass(cx, best_s, h)
    active = any(abs(v) == cap for v in best_s.coeffs.values()) and cap > 0
    return FlatCertificate(value, best_s, remainder, cap=cap, cap_active=active)


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

