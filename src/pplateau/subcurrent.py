"""Subcurrent relation and the boundary boxes it induces.

A is a subcurrent of B when, on every cell, the coefficients share a sign and
|A| <= |B|: the paper's mass identity mass(B) = mass(B - A) + mass(A) when
every measure is positive, and stricter where zero-measure cells exist, which
the identity cannot see. `solve` reads it as `boundary_box`'s interval dict.
"""

from __future__ import annotations

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


def boundary_box(cx: CellComplex, b: Chain, t0: Chain) -> dict[str, tuple[int, int]]:
    """Integer interval (lo, hi) per (m-1)-cell for the admissible boundary coefficients.

    boundary(T - T0) is a subcurrent of the integer budget `b` exactly when
    boundary(T) lies in boundary(T0) + [between 0 and b] on every cell. Keys:
    the cells of either support, sorted; every other cell's interval is [0, 0].
    """
    if not b.is_integer or not t0.is_integer:
        raise DomainError("boundary boxes require integer chains")
    cx.check_chain(b)
    dt0 = boundary(cx, t0)
    if not b.is_zero and not dt0.is_zero and b.dim != dt0.dim:
        raise DomainError(f"budget dimension {b.dim} does not match boundary(t0) dimension {dt0.dim}")
    box = {}
    for name in sorted(b.support() | dt0.support()):
        base, load = dt0.get(name), b.get(name)
        box[name] = (base + min(0, load), base + max(0, load))
    return box


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

