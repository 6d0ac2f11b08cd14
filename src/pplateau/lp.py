"""Exact simplex over the rationals, standard form min c.x, Ax = b, x >= 0.

Dense two-phase tableau with Bland's anti-cycling rule, so runs terminate and
are deterministic. Everything is fractions.Fraction; no floating point. The
result carries a dual vector recovered from the final basis inverse, which
callers use as an independent optimality certificate (weak duality).

Sized for desk-scale problems (tens of variables), which is all the real
flat norm ever builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction] = None
    x: Optional[tuple[Fraction, ...]] = None
    y: Optional[tuple[Fraction, ...]] = None  # dual vector, one entry per constraint row


def solve_lp(c: Sequence, a_rows: Sequence[Sequence], b: Sequence) -> LPResult:
    m = len(a_rows)
    n = len(c)
    cost = [Fraction(v) for v in c]
    rhs = [Fraction(v) for v in b]
    rows = [[Fraction(v) for v in row] for row in a_rows]
    for row in rows:
        if len(row) != n:
            raise DomainError("ragged constraint matrix")
    if len(rhs) != m:
        raise DomainError("rhs length does not match row count")

    if m == 0:
        if any(v < 0 for v in cost):
            return LPResult(UNBOUNDED)
        return LPResult(OPTIMAL, Fraction(0), tuple([Fraction(0)] * n), tuple())

    # Tableau columns: n structural, m artificial, then the rhs. Rows with a
    # negative rhs are negated for phase 1; duals must be flipped back.
    flip = [Fraction(1)] * m
    for i in range(m):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            rows[i] = [-v for v in rows[i]]
            flip[i] = Fraction(-1)
    width = n + m
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]

    def pivot(row_i: int, col_j: int) -> None:
        piv = tab[row_i][col_j]
        inv = 1 / piv
        tab[row_i] = [v * inv for v in tab[row_i]]
        for r in range(m):
            if r != row_i and tab[r][col_j] != 0:
                f = tab[r][col_j]
                tab[r] = [v - f * p for v, p in zip(tab[r], tab[row_i])]
        basis[row_i] = col_j

    def run_phase(obj: list[Fraction], allowed: int) -> str:
        """Bland-rule simplex on columns [0, allowed); returns OPTIMAL or UNBOUNDED."""
        while True:
            # y = obj_B * B^{-1}; reduced cost r_j = obj_j - y . A_j, computed
            # directly from the updated tableau: r_j = obj_j - sum_i obj_B[i] tab[i][j].
            entering = -1
            for j in range(allowed):
                if j in basis:
                    continue
                r = obj[j]
                for i in range(m):
                    ob = obj[basis[i]]
                    if ob != 0 and tab[i][j] != 0:
                        r -= ob * tab[i][j]
                if r < 0:
                    entering = j
                    break
            if entering < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i in range(m):
                coef = tab[i][entering]
                if coef > 0:
                    ratio = tab[i][width] / coef
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, entering)

    # Phase 1: minimize the sum of artificials.
    obj1 = [Fraction(0)] * n + [Fraction(1)] * m
    run_phase(obj1, width)
    phase1_value = sum(tab[i][width] for i in range(m) if basis[i] >= n)
    if phase1_value > 0:
        return LPResult(INFEASIBLE)
    # Drive leftover artificials out of the basis; redundant rows pivot on
    # whatever structural column is available or stay harmlessly at zero.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)

    obj2 = cost + [Fraction(0)] * m
    status = run_phase(obj2, n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][width]
    value = sum(cv * xv for cv, xv in zip(cost, x))
    # The artificial block of the tableau is B^{-1}, so y = cost_B . B^{-1};
    # entries for sign-normalized rows flip back to the caller's orientation.
    y = [Fraction(0)] * m
    for i in range(m):
        cb = obj2[basis[i]]
        if cb != 0:
            for k in range(m):
                y[k] += cb * tab[i][n + k]
    y = [v * s for v, s in zip(y, flip)]
    return LPResult(OPTIMAL, value, tuple(x), tuple(y))


def verify_certificate(c: Sequence, a_rows: Sequence[Sequence], b: Sequence,
                       x: Sequence, y: Sequence) -> bool:
    """Exact weak-duality check: x primal feasible, y dual feasible, equal objectives."""
    cost = [Fraction(v) for v in c]
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    if any(v < 0 for v in xs):
        return False
    for row, rhs in zip(a_rows, b):
        if sum(Fraction(rv) * xv for rv, xv in zip(row, xs)) != Fraction(rhs):
            return False
    for j, cj in enumerate(cost):
        if cj - sum(ys[i] * Fraction(a_rows[i][j]) for i in range(len(ys))) < 0:
            return False
    primal = sum(cv * xv for cv, xv in zip(cost, xs))
    dual = sum(yv * Fraction(rhs) for yv, rhs in zip(ys, b))
    return primal == dual
