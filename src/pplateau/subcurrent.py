"""Subcurrent relation and the boundary boxes it induces.

A is a subcurrent of B when, on every cell, the coefficients share a sign and
|A| <= |B|: the paper's mass identity mass(B) = mass(B - A) + mass(A) when
every measure is positive, and stricter where zero-measure cells exist, which
the identity cannot see. The solver, `certify` and the limit closure use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .complexes import CellComplex, Chain, boundary
from .errors import DomainError
from .functionals import h_mass, mass  # noqa: F401  bench/tracing.py wraps these names here


def is_subcurrent_cellwise(cx: CellComplex, a: Chain, b: Chain) -> bool:
    """Cellwise test: same sign and |a| <= |b| on every cell."""
    if a.is_zero:
        return True
    if a.dim != b.dim and not b.is_zero:
        raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")
    cx.check_chain(a)
    cx.check_chain(b)
    for name, av in a.coeffs.items():
        bv = b.get(name)
        if Fraction(av) * Fraction(bv) < 0 or abs(av) > abs(bv):
            return False
    return True


@dataclass(frozen=True)
class BoundaryBox:
    """Per-cell integer intervals confining the boundary of admissible chains.

    For the problem "boundary(T - T0) is a subcurrent of B", the boundary of T
    must lie, cell by cell, in boundary(T0) + [interval between 0 and B]. Cells
    off both supports get [0, 0]; every box contains boundary(T0)'s coefficient,
    so T0 itself is always admissible.
    """

    dim: int
    intervals: tuple[tuple[str, int, int], ...]  # (cell, lo, hi), lo <= hi

    def as_dict(self) -> dict[str, tuple[int, int]]:
        return {name: (lo, hi) for name, lo, hi in self.intervals}

    def contains(self, chain: Chain) -> bool:
        if chain.is_zero and self.dim >= 0:
            return all(lo <= 0 <= hi for _, lo, hi in self.intervals)
        if chain.dim != self.dim:
            raise DomainError(f"dimension mismatch: {chain.dim} vs {self.dim}")
        box = self.as_dict()
        for name, v in chain.coeffs.items():
            lo, hi = box.get(name, (0, 0))
            if not lo <= v <= hi:
                return False
        for name, (lo, hi) in box.items():
            if not lo <= chain.get(name) <= hi:
                return False
        return True


def boundary_box(cx: CellComplex, b: Chain, t0: Chain) -> BoundaryBox:
    """Integer interval per (m-1)-cell for the admissible boundary coefficients.

    `b` is the prescribed boundary budget (dimension m-1), `t0` the reference
    chain (dimension m, may be zero). Both must be integer chains.
    """
    if not b.is_integer or not t0.is_integer:
        raise DomainError("boundary boxes require integer chains")
    cx.check_chain(b)
    dt0 = boundary(cx, t0)
    if not b.is_zero and not dt0.is_zero and b.dim != dt0.dim:
        raise DomainError(f"budget dimension {b.dim} does not match boundary(t0) dimension {dt0.dim}")
    dim = b.dim if not b.is_zero else dt0.dim
    if dim < 0:
        dim = max(t0.dim - 1, 0) if not t0.is_zero else max(b.dim, 0)
    intervals = []
    for name in sorted(b.support() | dt0.support()):
        base = dt0.get(name)
        load = b.get(name)
        lo = base + min(0, load)
        hi = base + max(0, load)
        intervals.append((name, lo, hi))
    return BoundaryBox(dim, tuple(intervals))


def check_limit_closure(cx: CellComplex, seq: Sequence[Chain], b: Chain) -> Chain:
    """Verify an eventually-constant sequence of subcurrents of `b` and return its limit.

    The finite list stands for an infinite sequence; it counts as stabilized
    when its final two entries agree (a single entry is a constant sequence).
    Every entry must itself be a subcurrent of `b`; the limit then is too, and
    masses never exceed mass(b). Raises DomainError otherwise.
    """
    if not seq:
        raise DomainError("empty sequence has no limit")
    for i, a in enumerate(seq):
        if not a.is_integer:
            raise DomainError(f"entry {i} is not an integer chain")
        if not is_subcurrent_cellwise(cx, a, b):
            raise DomainError(f"entry {i} is not a subcurrent of the bound")
    if len(seq) >= 2 and seq[-1] != seq[-2]:
        raise DomainError("sequence is not eventually constant (tail still changing)")
    return seq[-1]

