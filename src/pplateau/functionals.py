"""Concave multiplicity costs and the functionals built from them.

An Integrand is a cost H on multiplicities, expected to satisfy five axioms:
H(0) = 0, H(1) = 1, strict monotonicity, subadditivity, unboundedness.
Supported kinds: identity, power laws theta^alpha with alpha in [0, 1], and
piecewise-linear tables. `validate_integrand` checks the axioms on an integer
grid instead of trusting the constructor, so deliberately broken integrands
(alpha = 0 in particular) can be built and inspected.

Mass sums |coefficient| * measure; the weighted mass applies H to the
absolute coefficient first. Energy subtracts the pairing of a prescribed
cochain with the chain's boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import CellComplex, Chain, Cochain, boundary, pair
from .errors import DomainError, SearchSpaceError
from .numeric import Number, is_exact, to_fraction

GRID_MAX = 64


@dataclass(frozen=True)
class Integrand:
    """Multiplicity cost H. Use the `identity`, `power`, `table` constructors."""

    kind: str
    alpha: Optional[Fraction] = None
    points: Optional[tuple[tuple[int, Fraction], ...]] = None

    @staticmethod
    def identity() -> "Integrand":
        return Integrand("identity")

    @staticmethod
    def power(alpha) -> "Integrand":
        a = to_fraction(alpha)
        if not 0 <= a <= 1:
            raise DomainError(f"power exponent must lie in [0, 1], got {a}")
        return Integrand("alpha", alpha=a)

    @staticmethod
    def table(points: Sequence[tuple[int, object]]) -> "Integrand":
        """Piecewise-linear cost through (theta, value) nodes.

        Nodes must start at theta = 0, be strictly increasing in theta, and
        there must be at least two so a terminal slope exists; beyond the last
        node the last segment's slope extends linearly.
        """
        clean: list[tuple[int, Fraction]] = []
        for theta, value in points:
            if not isinstance(theta, int) or isinstance(theta, bool):
                raise DomainError(f"table node position must be an integer, got {theta!r}")
            clean.append((theta, to_fraction(value)))
        clean.sort()
        if len(clean) < 2:
            raise DomainError("table integrand needs at least two nodes")
        if clean[0][0] != 0:
            raise DomainError("table integrand must have a node at 0")
        for (a, _), (b, _) in zip(clean, clean[1:]):
            if a == b:
                raise DomainError(f"duplicate table node at {a}")
        return Integrand("table", points=tuple(clean))

    # -- evaluation -------------------------------------------------------

    def __call__(self, theta: Number) -> Number:
        """H(theta) for theta >= 0. Exact (Fraction) whenever the kind allows."""
        if isinstance(theta, float):
            if theta < 0:
                raise DomainError(f"integrand argument must be >= 0, got {theta}")
            t: Number = theta
        else:
            t = to_fraction(theta)
            if t < 0:
                raise DomainError(f"integrand argument must be >= 0, got {theta}")
        if self.kind == "identity":
            return t if isinstance(t, float) else Fraction(t)
        if self.kind == "alpha":
            if t == 0:
                return Fraction(0)
            if self.alpha == 0:
                return Fraction(1)
            if self.alpha == 1:
                return t if isinstance(t, float) else Fraction(t)
            return float(t) ** float(self.alpha)
        return self._table_value(t)

    def _table_value(self, t: Number) -> Number:
        pts = self.points
        assert pts is not None
        exact = not isinstance(t, float)
        if not exact:
            t = Fraction(t)
        last_t, last_v = pts[-1]
        if t >= last_t:
            prev_t, prev_v = pts[-2]
            slope = (last_v - prev_v) / (last_t - prev_t)
            out = last_v + slope * (t - last_t)
        else:
            out = pts[0][1]
            for (a, va), (b, vb) in zip(pts, pts[1:]):
                if a <= t <= b:
                    out = va + (vb - va) * (t - a) / (b - a)
                    break
        return out if exact else float(out)

    # -- structure --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        """True when evaluation at integers yields exact rationals."""
        if self.kind == "alpha":
            return self.alpha in (0, 1)
        return True

    @property
    def unbounded(self) -> bool:
        if self.kind == "identity":
            return True
        if self.kind == "alpha":
            return self.alpha > 0
        return self._terminal_slope() > 0

    def _terminal_slope(self) -> Fraction:
        pts = self.points
        assert pts is not None
        (a, va), (b, vb) = pts[-2], pts[-1]
        return (vb - va) / (b - a)

    def upper_inverse(self, budget: Number) -> int:
        """Largest integer t >= 0 with H(t) <= budget.

        Floats get a small upward slack so rounding never shrinks the answer.
        Raises SearchSpaceError when H is bounded, since no finite answer is
        guaranteed to exist.
        """
        if not self.unbounded:
            raise SearchSpaceError("integrand is bounded; an explicit cap is required")
        slack = 0 if (self.is_exact and is_exact(budget)) else 1e-9

        def fits(t: int) -> bool:
            v = self(t)
            if is_exact(v) and is_exact(budget):
                return v <= budget
            return float(v) <= float(budget) + slack

        if not fits(0):
            raise DomainError(f"budget {budget} is below H(0) = 0")
        hi = 1
        while fits(hi):
            hi *= 2
            if hi > 2 ** 62:
                raise SearchSpaceError("upper inverse overflow; budget too large")
        lo = hi // 2  # fits(lo) holds, fits(hi) fails
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "alpha":
            return f"alpha {self.alpha}"
        body = ", ".join(f"({t}, {v})" for t, v in self.points)
        return f"table {body}"


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class IntegrandReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> list[str]:
        return [c.axiom for c in self.checks if not c.ok]


def validate_integrand(h: Integrand, grid_max: int = GRID_MAX) -> IntegrandReport:
    """Check the five axioms on the integer grid 0..grid_max plus pairwise sums.

    Monotonicity and subadditivity are genuinely grid checks; zero/unit
    normalization is a point check; unboundedness follows from the integrand's
    structure (power-law exponent or terminal slope), which the grid cannot see.
    """
    checks: list[AxiomCheck] = []
    vals = [h(t) for t in range(grid_max + 1)]

    ok0 = vals[0] == 0
    checks.append(AxiomCheck("zero-at-zero", ok0, "" if ok0 else f"H(0) = {vals[0]}"))
    ok1 = vals[1] == 1
    checks.append(AxiomCheck("unit-at-one", ok1, "" if ok1 else f"H(1) = {vals[1]}"))

    bad = next((t for t in range(grid_max) if not vals[t] < vals[t + 1]), None)
    checks.append(AxiomCheck(
        "strictly-increasing", bad is None,
        "" if bad is None else f"H({bad}) = {vals[bad]} !< H({bad + 1}) = {vals[bad + 1]}"))

    sub_bad = ""
    for a in range(1, grid_max + 1):
        for b in range(a, grid_max + 1):
            lhs = h(a + b)
            rhs = vals[a] + vals[b]
            if is_exact(lhs) and is_exact(rhs):
                violated = lhs > rhs
            else:
                violated = float(lhs) > float(rhs) + 1e-9
            if violated:
                sub_bad = f"H({a}+{b}) = {lhs} > {rhs}"
                break
        if sub_bad:
            break
    checks.append(AxiomCheck("subadditive", not sub_bad, sub_bad))

    unb = h.unbounded
    checks.append(AxiomCheck("unbounded", unb, "" if unb else "H has a finite supremum"))
    return IntegrandReport(tuple(checks))


# -- functionals ----------------------------------------------------------


def mass(cx: CellComplex, chain: Chain) -> Fraction:
    """Sum of |coefficient| * measure over the chain's support."""
    cx.check_chain(chain)
    total = Fraction(0)
    for name, c in chain.coeffs.items():
        total += abs(Fraction(c)) * cx.measure(chain.dim, name)
    return total


def h_mass(cx: CellComplex, chain: Chain, h: Integrand) -> Number:
    """Mass with multiplicities weighted by H: sum of H(|coeff|) * measure."""
    cx.check_chain(chain)
    total: Number = Fraction(0)
    for name, c in chain.coeffs.items():
        term = h(abs(c)) * cx.measure(chain.dim, name)
        total = total + term
    return total


def alpha_mass(cx: CellComplex, chain: Chain, alpha) -> Number:
    """Power-law mass; alpha = 0 counts the support's measure, alpha = 1 is mass."""
    return h_mass(cx, chain, Integrand.power(alpha))


@dataclass(frozen=True)
class EnergyValue:
    h_mass: Number
    pairing: Fraction
    energy: Number


def energy(cx: CellComplex, chain: Chain, h: Integrand, phi: Cochain) -> EnergyValue:
    """Weighted mass minus the cochain's pairing with the chain's boundary."""
    if not chain.is_integer:
        raise DomainError("energy is defined for integer chains")
    mh = h_mass(cx, chain, h)
    p = pair(phi, boundary(cx, chain))
    return EnergyValue(mh, p, mh - p)


def comass(cx: CellComplex, phi: Cochain) -> Fraction:
    """Largest |value| / measure over the cochain's support.

    A nonzero value on a zero-measure cell makes the ratio meaningless, so
    that is rejected.
    """
    cx.check_cochain(phi)
    best = Fraction(0)
    for name, v in phi.values.items():
        mu = cx.measure(phi.dim, name)
        if mu == 0:
            raise DomainError(f"cochain value on zero-measure cell {name!r}")
        best = max(best, abs(v) / mu)
    return best
