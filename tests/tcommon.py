"""Shared builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from pplateau.complexes import CellComplex, Chain, Cochain
from pplateau.errors import DomainError
from pplateau.flatnorm import FlatCertificate
from pplateau.functionals import Integrand, h_mass, mass
from pplateau.numeric import values_equal


def interval(edge_measure=1, va=1, vb=1) -> CellComplex:
    """Two vertices joined by one edge."""
    cx = CellComplex()
    cx.add_cell(0, "a", va)
    cx.add_cell(0, "b", vb)
    cx.add_cell(1, "e", edge_measure)
    cx.add_face(1, "e", "a", -1)
    cx.add_face(1, "e", "b", 1)
    return cx


def square() -> CellComplex:
    """Unit square split along a diagonal into two triangles."""
    cx = CellComplex()
    for name in ("p", "q", "r", "s"):
        cx.add_cell(0, name, 1)
    # edges: p->q, q->r, r->s, s->p, diagonal p->r
    for name, tail, head in (("pq", "p", "q"), ("qr", "q", "r"),
                             ("rs", "r", "s"), ("sp", "s", "p"),
                             ("pr", "p", "r")):
        cx.add_cell(1, name, 1)
        cx.add_face(1, name, tail, -1)
        cx.add_face(1, name, head, 1)
    cx.add_cell(2, "lower", Fraction(1, 2))
    cx.add_cell(2, "upper", Fraction(1, 2))
    cx.add_face(2, "lower", "pq", 1)
    cx.add_face(2, "lower", "qr", 1)
    cx.add_face(2, "lower", "pr", -1)
    cx.add_face(2, "upper", "pr", 1)
    cx.add_face(2, "upper", "rs", 1)
    cx.add_face(2, "upper", "sp", 1)
    return cx


def grid(n: int) -> CellComplex:
    """n x n grid of unit squares; square q{i}_{j} runs counterclockwise."""
    cx = CellComplex()
    for i in range(n + 1):
        for j in range(n + 1):
            cx.add_cell(0, f"v{i}_{j}", 1)
    for i in range(n):
        for j in range(n + 1):
            cx.add_cell(1, f"h{i}_{j}", 1)
            cx.add_face(1, f"h{i}_{j}", f"v{i}_{j}", -1)
            cx.add_face(1, f"h{i}_{j}", f"v{i + 1}_{j}", 1)
    for i in range(n + 1):
        for j in range(n):
            cx.add_cell(1, f"u{i}_{j}", 1)
            cx.add_face(1, f"u{i}_{j}", f"v{i}_{j}", -1)
            cx.add_face(1, f"u{i}_{j}", f"v{i}_{j + 1}", 1)
    for i in range(n):
        for j in range(n):
            q = f"q{i}_{j}"
            cx.add_cell(2, q, 1)
            cx.add_face(2, q, f"h{i}_{j}", 1)
            cx.add_face(2, q, f"u{i + 1}_{j}", 1)
            cx.add_face(2, q, f"h{i}_{j + 1}", -1)
            cx.add_face(2, q, f"u{i}_{j}", -1)
    return cx


def grid_outer_boundary(n: int) -> Chain:
    """The counterclockwise outer boundary cycle of the n x n grid."""
    coeffs = {}
    for i in range(n):
        coeffs[f"h{i}_0"] = 1
        coeffs[f"h{i}_{n}"] = -1
        coeffs[f"u{n}_{i}"] = 1
        coeffs[f"u0_{i}"] = -1
    return Chain(1, coeffs)


def random_complex(rng: random.Random, max_cells: int = 12,
                   zero_share: float = 0.0, signs: tuple = (-1, 1)) -> CellComplex:
    """Random 2-dimensional complex with balanced cell counts.

    Incidence signs are drawn from `signs` and are otherwise arbitrary, so
    boundary-of-boundary need not vanish; fine for solver and functional
    tests, which never differentiate twice. With `zero_share` > 0 each cell
    gets measure 0 with that probability; at the default 0 no extra draws are
    made, so existing seeds are unchanged.
    """
    n0 = rng.randint(1, 4)
    n1 = rng.randint(2, 5)
    n2 = rng.randint(1, min(6, max_cells - n0 - n1))

    def measure() -> Fraction:
        mu = Fraction(rng.randint(1, 3))
        return Fraction(0) if zero_share and rng.random() < zero_share else mu

    cx = CellComplex()
    for i in range(n0):
        cx.add_cell(0, f"v{i}", measure())
    for i in range(n1):
        cx.add_cell(1, f"e{i}", measure())
    for i in range(n2):
        cx.add_cell(2, f"f{i}", measure())
    for i in range(n2):
        for j in range(n1):
            if rng.random() < 0.6:
                cx.add_face(2, f"f{i}", f"e{j}", rng.choice(signs))
    for j in range(n1):
        for k in range(n0):
            if rng.random() < 0.5:
                cx.add_face(1, f"e{j}", f"v{k}", rng.choice(signs))
    return cx


def random_chain(rng: random.Random, cx: CellComplex, dim: int,
                 lo: int = -2, hi: int = 2, density: float = 0.7) -> Chain:
    coeffs = {}
    for name in cx.cell_names(dim):
        if rng.random() < density:
            coeffs[name] = rng.randint(lo, hi)
    return Chain(dim, coeffs)


def random_cochain(rng: random.Random, cx: CellComplex, dim: int,
                   lo: int = -2, hi: int = 2, density: float = 0.7) -> Cochain:
    values = {}
    for name in cx.cell_names(dim):
        if rng.random() < density:
            values[name] = Fraction(rng.randint(lo, hi))
    return Cochain(dim, values)


def chain_dicts(chains) -> list[dict]:
    return [dict(c.items()) for c in chains]


def is_subcurrent(cx: CellComplex, a: Chain, b: Chain) -> bool:
    """The paper's mass identity: mass(b) == mass(b - a) + mass(a), computed exactly.

    The library decides subcurrents cellwise; this is the test oracle that
    rule is checked against.
    """
    if a.is_zero:
        return True
    if a.dim != b.dim and not b.is_zero:
        raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = Chain(a.dim, {
        name: Fraction(b.get(name)) - Fraction(a.get(name))
        for name in a.support() | b.support()
    })
    return mass(cx, b) == mass(cx, diff) + mass(cx, a)


def subcurrent_masses_dominated(cx: CellComplex, a: Chain, b: Chain, h: Integrand) -> bool:
    """mass(a) <= mass(b) and weighted mass likewise; holds whenever a is a subcurrent of b."""
    ma, mb = mass(cx, a), mass(cx, b)
    ha, hb = h_mass(cx, a, h), h_mass(cx, b, h)
    mass_ok = ma <= mb
    if isinstance(ha, Fraction) and isinstance(hb, Fraction):
        return mass_ok and ha <= hb
    return mass_ok and float(ha) <= float(hb) + 1e-9


def certificates_agree(a: FlatCertificate, b: FlatCertificate) -> bool:
    return values_equal(a.value, b.value) and a.filling == b.filling
