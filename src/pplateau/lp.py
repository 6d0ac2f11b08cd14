"""Exact simplex over the rationals, standard form min c.x, Ax = b, x >= 0.

Dense two-phase tableau with Bland's anti-cycling rule, so runs terminate and
are deterministic. Everything is fractions.Fraction; no floating point. The
result carries a dual vector recovered from the final basis inverse, which
callers use as an independent optimality certificate (weak duality), and the
number of pivots made, a count that does not depend on the machine.

Lexicographic tightening continues the same run instead of solving new LPs.
For an optimal dual y and reduced costs d = c - yA, every feasible x has
c.x = y.b + d.x, so a feasible x is optimal exactly when x_j = 0 wherever
d_j > 0. After the base optimum those columns are fixed at zero, which leaves
the optimal face. Each further objective is then minimized by phase 2 from
the current basis over the face's columns, and the face shrinks again by the
same reduced-cost rule. The base pivots never change, so the dual is the
base LP's own.

A stage that is unbounded on the face (possible when some costs are zero)
pins its objective at the base optimum's value instead: the pin is appended
to the live tableau as one more row with one artificial, and a phase 1 over
the face's columns drives the artificial out. If the pin cannot be met, the
tightening stops and the result is the base optimum.

Sized for desk-scale problems (tens to a few hundred variables), which is all
the real flat norm ever builds. Pivots touch only the nonzero entries of the
pivot row, and the priced objective is kept as one more tableau row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction] = None
    x: Optional[tuple[Fraction, ...]] = None
    y: Optional[tuple[Fraction, ...]] = None  # dual vector, one entry per constraint row
    pivots: int = 0  # simplex pivots over all phases and lexicographic stages
    pinned: int = 0  # lexicographic stages unbounded on the face, pinned at the base value


class _Tableau:
    """Rows of B^-1 [A | b] (the rhs last), the basis, and one priced row.

    `d` holds the reduced costs of the objective being minimized, laid out
    like a row; pivots keep it current, so pricing is a scan of `d`.
    """

    def __init__(self, rows: list[list[Fraction]], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols  # row length, the rhs included
        self.d: list[Fraction] = []
        self.pivots = 0

    def price(self, obj: Sequence[Fraction]) -> None:
        """Reduced costs of `obj`; columns past its end (artificials) cost 0."""
        k = len(obj)
        d = list(obj) + [_ZERO] * (self.ncols - k)
        for row, b in zip(self.rows, self.basis):
            cb = obj[b] if b < k else 0
            if cb:
                d = [dv - cb * rv if rv else dv for dv, rv in zip(d, row)]
        self.d = d

    def pivot(self, r: int, j: int) -> None:
        row = self.rows[r]
        inv = 1 / row[j]
        nz = [k for k, v in enumerate(row) if v]
        for k in nz:
            row[k] *= inv
        for other in self.rows + [self.d]:
            f = other[j]
            if f and other is not row:
                for k in nz:
                    other[k] -= f * row[k]
        self.basis[r] = j
        self.pivots += 1

    def run(self, cols: Sequence[int]) -> str:
        """Bland-rule simplex over `cols` (ascending); OPTIMAL or UNBOUNDED."""
        d = self.d
        while True:
            entering = next((j for j in cols if d[j] < 0), -1)
            if entering < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i, row in enumerate(self.rows):
                coef = row[entering]
                if coef > 0:
                    ratio = row[-1] / coef
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, entering)  # updates d in place

    def drive_out(self, r: int, cols: Sequence[int]) -> None:
        """Pivot an artificial at zero out of row r on any column of `cols`;
        a row with no such entry is redundant there and keeps it harmlessly."""
        col = next((j for j in cols if self.rows[r][j] != 0), None)
        if col is not None:
            self.pivot(r, col)

    def point(self, n: int) -> list[Fraction]:
        x = [_ZERO] * n
        for row, b in zip(self.rows, self.basis):
            if b < n:
                x[b] = row[-1]
        return x

    def pin(self, obj: Sequence[Fraction], value: Fraction, label: int,
            cols: Sequence[int]) -> bool:
        """Append the row obj.x = value with artificial `label` and drive the
        artificial to zero over `cols`; False when the row cannot be met."""
        self.price(obj)
        # In the current basis the row reads d_N . x_N = value - obj.x.
        row = self.d
        row[-1] = value + row[-1]
        if row[-1] < 0:
            row = [-v for v in row]
        self.rows.append(row)
        self.basis.append(label)
        self.d = [-v for v in row]  # phase 1: minimize the artificial
        self.run(cols)
        if label not in self.basis:
            return True
        r = self.basis.index(label)
        if self.rows[r][-1] != 0:
            return False
        self.drive_out(r, cols)
        return True


def solve_lp(c: Sequence, a_rows: Sequence[Sequence], b: Sequence,
             lex: Sequence[Sequence] = ()) -> LPResult:
    """Minimize c.x over Ax = b, x >= 0, then each objective of `lex` in turn
    over the optimal face (see the module docstring).

    `value` and `y` belong to the base LP; `x` is the lexicographically
    tightened optimum. With `lex` empty this is the plain two-phase simplex.
    """
    m = len(a_rows)
    n = len(c)
    cost = [Fraction(v) for v in c]
    rhs = [Fraction(v) for v in b]
    rows = [[Fraction(v) for v in row] for row in a_rows]
    stages = [[Fraction(v) for v in obj] for obj in lex]
    for row in rows:
        if len(row) != n:
            raise DomainError("ragged constraint matrix")
    if len(rhs) != m:
        raise DomainError("rhs length does not match row count")
    if any(len(obj) != n for obj in stages):
        raise DomainError("lexicographic objective length does not match c")

    # Tableau columns: n structural, m artificial, then the rhs. Rows with a
    # negative rhs are negated for phase 1; duals must be flipped back.
    flip = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            rows[i] = [-v for v in rows[i]]
            flip[i] = -1
    width = n + m
    tab = _Tableau([rows[i] + [Fraction(1) if j == i else _ZERO for j in range(m)] + [rhs[i]]
                    for i in range(m)], [n + i for i in range(m)], width + 1)

    # Phase 1: minimize the sum of artificials.
    tab.price([_ZERO] * n + [Fraction(1)] * m)
    tab.run(range(width))
    if any(row[-1] > 0 for row, bi in zip(tab.rows, tab.basis) if bi >= n):
        return LPResult(INFEASIBLE, pivots=tab.pivots)
    # Drive leftover artificials out of the basis; redundant rows pivot on
    # whatever structural column is available or stay harmlessly at zero.
    for i in range(m):
        if tab.basis[i] >= n:
            tab.drive_out(i, range(n))

    tab.price(cost)
    if tab.run(range(n)) == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=tab.pivots)
    x = tab.point(n)
    value = sum((cv * xv for cv, xv in zip(cost, x)), _ZERO)
    # The artificial block of the priced row is -cost_B . B^{-1} = -y;
    # entries for sign-normalized rows flip back to the caller's orientation.
    y = tuple(-tab.d[n + k] * flip[k] for k in range(m))

    face = [j for j in range(n) if tab.d[j] == 0]
    tab.rows = [row[:n] + [row[-1]] for row in tab.rows]  # B^-1 is no longer needed
    tab.ncols = n + 1
    pinned = 0
    for k, obj in enumerate(stages):
        tab.price(obj)
        if tab.run(face) == OPTIMAL:
            face = [j for j in face if tab.d[j] == 0]
        elif tab.pin(obj, sum(o * xv for o, xv in zip(obj, x)), width + k, face):
            pinned += 1
        else:
            return LPResult(OPTIMAL, value, tuple(x), y, tab.pivots, pinned)
    return LPResult(OPTIMAL, value, tuple(tab.point(n)), y, tab.pivots, pinned)
