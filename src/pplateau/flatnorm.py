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
from typing import Optional

from .complexes import CellComplex, Chain, Cochain, boundary, pair, unit_chain
from .errors import DomainError, SearchSpaceError
from .functionals import Integrand, h_mass, mass
from .lp import OPTIMAL, solve_lp
from .numeric import Number, check_int, strictly_less
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


def flat_norm_real(cx: CellComplex, t: Chain) -> FlatCertificate:
    """Exact real flat norm with a dual optimality certificate.

    One LP row per m-cell reads R + boundary(S) = T, over split columns R+, R-
    per m-cell, then S+, S- per (m+1)-cell, each costing the cell's measure.
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
    sigmas, taus = cx.cell_names(dim), cx.cell_names(dim + 1)
    n_s = len(sigmas)
    ncols = 2 * (n_s + len(taus))

    def split(entries: dict[int, int]) -> list[int]:  # +v and -v on k's two columns
        row = [0] * ncols
        for k, v in entries.items():
            row[2 * k], row[2 * k + 1] = v, -v
        return row

    # Variable i < n_s is R on sigma i; variable n_s + j is S on tau j. Row i
    # reads sigma i's cofaces.
    col = {tau: n_s + j for j, tau in enumerate(taus)}
    entries = [{i: 1} | {col[tau]: sign for tau, sign in row}
               for i, row in enumerate(cx.cofaces(dim + 1).values())]
    cost = [cx.measure(d, name) for d, names in ((dim, sigmas), (dim + 1, taus))
            for name in names for _ in range(2)]
    res = solve_lp(cost, [split(e) for e in entries], [t.get(name) for name in sigmas],
                   lex=[split({n_s + j: 1}) for j in range(len(taus))])
    if res.status != OPTIMAL:
        raise DomainError(f"flat norm LP unexpectedly {res.status}")
    dual = Cochain(dim, {name: res.y[i] for i, name in enumerate(sigmas) if res.y[i] != 0})
    filling = Chain(dim + 1, {tau: res.x[2 * (n_s + j)] - res.x[2 * (n_s + j) + 1]
                              for j, tau in enumerate(taus)})
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


def _integer_difference(cx: CellComplex, t1: Chain, t2: Chain, cap: int) -> Chain:
    """t1 - t2, checked to be an integer chain on `cx`, with the filling cap checked too."""
    t = t1 - t2
    if not t.is_integer:
        raise DomainError("flat distance needs integer chains")
    cx.check_chain(t)
    check_int(cap, 0, "cap")
    return t


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
    its cofaces, costing measure * H(|t - r|). As H does not decrease, a row's
    least cost is 0 when t - r can be 0, else at the end nearest zero; a cost
    that decreases somewhere a row can reach raises DomainError.
    """
    t = _integer_difference(cx, t1, t2, cap)
    dim = t.dim
    taus = cx.cell_names(dim + 1)
    cost = cache(lambda j: h(j) if j else 0)  # a cell at 0 costs nothing

    def least(target: int, mu: Number, lo: int, hi: int) -> Number:
        if target - hi <= 0 <= target - lo:
            return 0
        return mu * cost(min(abs(target - hi), abs(target - lo)))

    rows = cx.cofaces(dim + 1)
    # `least` is a lower bound only where the cost does not decrease, on the
    # remainders |t - r| a row can reach.
    reach = max((abs(t.get(name)) + cap * sum(abs(s) for _, s in row)
                 for name, row in rows.items()), default=0)
    for j in range(reach):
        if cost(j) > cost(j + 1):
            raise DomainError(f"flat distance needs a nondecreasing cost; H({j}) > H({j + 1})")
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
    t = _integer_difference(cx, t1, t2, cap)
    dim = t.dim
    taus = cx.cell_names(dim + 1)
    if (2 * cap + 1) ** max(len(taus), 1) > ENUMERATION_LIMIT:
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

