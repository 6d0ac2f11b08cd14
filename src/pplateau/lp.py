"""Exact simplex over the rationals, standard form min c.x, Ax = b, x >= 0.

Dense two-phase tableau with Bland's anti-cycling rule, so runs terminate and
are deterministic. Rows are ints over one positive denominator each and pivot
fraction-free (after Edmonds 1967, Bareiss 1968 and Gaertner 1999); there is
no floating point, and `Fraction`s are built only for the result. It carries
a dual vector recovered from the final basis inverse, which callers use as an
independent optimality certificate (weak duality), and the number of pivots
made, a count that does not depend on the machine.

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
the real flat norm ever builds. Pivots touch only the rows with a nonzero in
the pivot column, and the priced objective is kept as one more tableau row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def _integers(values: Sequence) -> tuple[list[int], int]:
    """Numerators over the lcm of the denominators; non-ints are read by `Fraction`."""
    try:
        vals = [v if type(v) in (int, Fraction) else Fraction(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"LP data must be finite rationals: {exc}") from exc
    den = lcm(*(v.denominator for v in vals if type(v) is not int))
    return [v * den if type(v) is int else v.numerator * (den // v.denominator)
            for v in vals], den


def _reduce(row: list[int]) -> None:
    """Divide out the gcd, signed to leave the denominator positive."""
    g = 1 if row[-1] == 1 else gcd(*row) if row[-1] > 0 else -gcd(*row)
    if g != 1:
        row[:] = [v // g for v in row]


def _eliminate(row: list[int], j: int, prow: list[int], nz: Sequence[int]) -> None:
    """Clear column j of row in place by prow, whose entry there is its denominator p."""
    f, p = row[j], prow[-1]
    if p != 1:
        row[:] = [p * v for v in row]
    for k in nz:
        row[k] -= f * prow[k]
    _reduce(row)


class _Tableau:
    """Rows of B^-1 [A | b] (the rhs last), the basis, and one priced row.

    A row is int numerators, then one positive denominator after the rhs, with
    their gcd divided out; its entry in its basic column is its denominator.
    `d`, laid out like a row, holds the reduced costs being minimized; pivots
    keep it current, so pricing is a scan of `d`.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols  # row length, the rhs included and the denominator not
        self.d: list[int] = []
        self.pivots = 0

    def price(self, nums: list[int], den: int) -> None:
        """Reduced costs of the objective nums / den; artificials cost 0."""
        k = len(nums)
        d = nums + [0] * (self.ncols - k) + [den]
        for row, b in zip(self.rows, self.basis):
            if b < k and d[b]:
                _eliminate(d, b, row, [i for i, v in enumerate(row[:-1]) if v])
        self.d = d

    def pivot(self, r: int, j: int) -> None:
        row = self.rows[r]
        row[-1] = row[j]  # dividing by the entry renames the denominator
        _reduce(row)
        nz = [k for k, v in enumerate(row[:-1]) if v]
        for other in self.rows + [self.d]:
            if other[j] and other is not row:
                _eliminate(other, j, row, nz)
        self.basis[r] = j
        self.pivots += 1

    def run(self, cols: Sequence[int]) -> str:
        """Bland-rule simplex over `cols` (ascending); OPTIMAL or UNBOUNDED."""
        d = self.d
        while True:
            entering = next((j for j in cols if d[j] < 0), -1)
            if entering < 0:
                return OPTIMAL
            leave, rhs, coef = -1, 0, 1  # least ratio rhs / coef so far
            for i, row in enumerate(self.rows):
                c = row[entering]
                if c > 0:  # cross-multiplied: the row's denominator cancels
                    diff = row[-2] * coef - rhs * c
                    if leave < 0 or diff < 0 or (diff == 0 and self.basis[i] < self.basis[leave]):
                        leave, rhs, coef = i, row[-2], c
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, entering)  # updates d in place

    def drive_out(self, r: int, cols: Sequence[int]) -> None:
        """Pivot an artificial at zero out of row r on any column of `cols`;
        a row with no such entry is redundant there and keeps it harmlessly."""
        col = next((j for j in cols if self.rows[r][j] != 0), None)
        if col is not None:
            self.pivot(r, col)

    def pin(self, obj: tuple[list[int], int], value: Fraction, label: int,
            cols: Sequence[int]) -> bool:
        """Append the row obj.x = value with artificial `label` and drive the
        artificial to zero over `cols`; False when the row cannot be met."""
        self.price(*obj)
        # In the current basis the row reads d_N . x_N = value - obj.x.
        row = [v * value.denominator for v in self.d]
        row[-2] += value.numerator * self.d[-1]
        if row[-2] < 0:
            row[:-1] = [-v for v in row[:-1]]
        _reduce(row)
        self.rows.append(row)
        self.basis.append(label)
        self.d = [-v for v in row[:-1]] + row[-1:]  # phase 1: minimize the artificial
        self.run(cols)
        if label not in self.basis:
            return True
        r = self.basis.index(label)
        if self.rows[r][-2] != 0:
            return False
        self.drive_out(r, cols)
        return True


def _point(tab: _Tableau, n: int) -> tuple[Fraction, ...]:
    basic = {b: Fraction(row[-2], row[-1]) for row, b in zip(tab.rows, tab.basis) if b < n}
    return tuple(basic.get(j, _ZERO) for j in range(n))


def solve_lp(c: Sequence, a_rows: Sequence[Sequence], b: Sequence,
             lex: Sequence[Sequence] = ()) -> LPResult:
    """Minimize c.x over Ax = b, x >= 0, then each objective of `lex` in turn
    over the optimal face (see the module docstring).

    `value` and `y` belong to the base LP; `x` is the lexicographically
    tightened optimum. With `lex` empty this is the plain two-phase simplex.
    """
    m, n = len(a_rows), len(c)
    if any(len(row) != n for row in [*a_rows, *lex]):
        raise DomainError("a constraint row or lexicographic objective does not match c in length")
    if len(b) != m:
        raise DomainError("rhs length does not match row count")
    cost = _integers(c)
    stages = [_integers(obj) for obj in lex]

    # Tableau columns: n structural, m artificial, then the rhs. Rows with a
    # negative rhs are negated for phase 1; duals must be flipped back.
    scaled = [_integers([*row, bi]) for row, bi in zip(a_rows, b)]
    flip = [-1 if nums[-1] < 0 else 1 for nums, _ in scaled]
    width = n + m
    tab = _Tableau([[f * v for v in nums[:n]] + [den if k == i else 0 for k in range(m)]
                    + [f * nums[n], den] for i, ((nums, den), f) in enumerate(zip(scaled, flip))],
                   [n + i for i in range(m)], width + 1)

    # Phase 1: minimize the sum of artificials.
    tab.price([0] * n + [1] * m, 1)
    tab.run(range(width))
    if any(row[-2] > 0 for row, bi in zip(tab.rows, tab.basis) if bi >= n):
        return LPResult(INFEASIBLE, pivots=tab.pivots)
    # Drive leftover artificials out of the basis (see `drive_out`).
    for i in range(m):
        if tab.basis[i] >= n:
            tab.drive_out(i, range(n))

    tab.price(*cost)
    if tab.run(range(n)) == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=tab.pivots)
    # The priced row reads -value at the rhs and -y = -cost_B . B^{-1} in the
    # artificial block; y flips back to the caller's orientation of each row.
    value = Fraction(-tab.d[-2], tab.d[-1])
    y = tuple(Fraction(-tab.d[n + k] * flip[k], tab.d[-1]) for k in range(m))
    x = _point(tab, n)

    face = [j for j in range(n) if tab.d[j] == 0]
    tab.rows = [row[:n] + row[-2:] for row in tab.rows]  # B^-1 is no longer needed
    tab.ncols = n + 1
    pinned = 0
    for k, obj in enumerate(stages):
        tab.price(*obj)
        if tab.run(face) == OPTIMAL:
            face = [j for j in face if tab.d[j] == 0]
        elif tab.pin(obj, sum(o * xv for o, xv in zip(obj[0], x)) / obj[1], width + k, face):
            pinned += 1
        else:
            return LPResult(OPTIMAL, value, x, y, tab.pivots, pinned)
    return LPResult(OPTIMAL, value, _point(tab, n), y, tab.pivots, pinned)
