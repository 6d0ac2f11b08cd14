"""Metamorphic relations: exact relations between two runs of the same code.

They check `solve` and the flat distances on instances of any size, past the
boxes the exhaustive oracles can enumerate.

Orientation. Reversing one cell negates every incidence it takes part in, as
a cell and as a face, and its coefficient in every chain and cochain. The
problem after is the problem before in other coordinates, so every value is
unchanged and every answer maps by that sign.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplateau.complexes import CellComplex, Chain, Cochain
from pplateau.errors import DomainError
from pplateau.flatnorm import flat_norm_real, h_flat_distance
from pplateau.functionals import Integrand
from pplateau.numeric import values_equal
from pplateau.solver import ORACLE_LIMIT, Problem, solve
from pplateau.sunflower import as_problem, build_sunflower

from tcommon import random_chain, random_cochain, random_complex

IDENT = Integrand.identity()
SQRT = Integrand.power(Fraction(1, 2))
QUART = Integrand.power(Fraction(1, 4))
SEEDS = st.integers(0, 2**32 - 1)
HALF = Fraction(1, 2)
K16 = (1, 0, 2, HALF, 0, 2, 1, HALF, 0, 2, 1, 3 * HALF, 2, 0, 0, 3 * HALF)


def reverse(cx: CellComplex, dim: int, name: str) -> CellComplex:
    """A copy of `cx` with the `dim`-cell `name` reversed."""
    out = CellComplex()
    for d in cx.dims():
        for cell in cx.cells(d):
            out.add_cell(d, cell.name, cell.measure, cell.label)
    for d in cx.dims()[1:]:
        for cell, face, sign in cx.face_entries(d):
            flipped = (d, cell) == (dim, name) or (d - 1, face) == (dim, name)
            out.add_face(d, cell, face, -sign if flipped else sign)
    return out


def flip(x, name: str):
    """A chain or cochain with its coefficient on `name` negated."""
    if isinstance(x, Cochain):
        return Cochain(x.dim, {**x.values, name: -x.get(name)})
    return Chain(x.dim, {**x.coeffs, name: -x.get(name)})


def _random_problem(rng):
    cx = random_complex(rng, zero_share=rng.choice((0.0, 0.25)),
                        signs=rng.choice(((-1, 1), (-2, -1, 1, 2))))
    dim = rng.choice((1, 2))
    p = Problem(cx, dim, random_chain(rng, cx, dim - 1, -1, 1),
                random_chain(rng, cx, dim, -1, 1), random_cochain(rng, cx, dim - 1),
                rng.choice((IDENT, SQRT, QUART)))
    return p, rng.randint(0, 2)


def _assert_same_solution(p, q, caps, image):
    """solve(q) has solve(p)'s value and the image of its minimizer set."""
    try:
        before = solve(p, caps, max_minimizers=None)
    except DomainError:
        with pytest.raises(DomainError):
            solve(q, caps, max_minimizers=None)
        return
    after = solve(q, caps, max_minimizers=None)
    assert values_equal(after.value.energy, before.value.energy)
    assert set(after.minimizers) == {image(m) for m in before.minimizers}


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_reversing_an_m_cell_maps_the_minimizers_by_its_sign(seed):
    rng = random.Random(seed)
    p, caps = _random_problem(rng)
    sigma = rng.choice(p.cx.cell_names(p.dim))
    q = replace(p, cx=reverse(p.cx, p.dim, sigma), reference=flip(p.reference, sigma))
    _assert_same_solution(p, q, caps, lambda m: flip(m, sigma))


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_reversing_a_face_keeps_the_minimizers(seed):
    rng = random.Random(seed)
    p, caps = _random_problem(rng)
    e = rng.choice(p.cx.cell_names(p.dim - 1))
    q = replace(p, cx=reverse(p.cx, p.dim - 1, e),
                budget_chain=flip(p.budget_chain, e), phi=flip(p.phi, e))
    _assert_same_solution(p, q, caps, lambda m: m)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_reversing_a_cell_keeps_the_flat_values(seed):
    rng = random.Random(seed)
    cx = random_complex(rng, signs=rng.choice(((-1, 1), (-2, -1, 1, 2))))
    m = rng.choice((0, 1))
    t, zero, cap = random_chain(rng, cx, m), Chain(m), rng.randint(0, 2)
    sigma, tau = rng.choice(cx.cell_names(m)), rng.choice(cx.cell_names(m + 1))
    by_sigma, by_tau = reverse(cx, m, sigma), reverse(cx, m + 1, tau)
    for h in (IDENT, SQRT):
        base = h_flat_distance(cx, t, zero, h, cap)
        got = h_flat_distance(by_sigma, flip(t, sigma), zero, h, cap)
        assert values_equal(got.value, base.value)
        assert got.filling == base.filling
        assert got.remainder == flip(base.remainder, sigma)
        assert values_equal(h_flat_distance(by_tau, t, zero, h, cap).value, base.value)
    base = flat_norm_real(cx, t)
    got = flat_norm_real(by_sigma, flip(t, sigma))
    assert got.value == base.value and got.filling == base.filling
    assert got.remainder == flip(base.remainder, sigma)
    assert flat_norm_real(by_tau, t).value == base.value


def test_reversing_sunflower_cells_above_the_oracle_limit():
    # Disk pairing 7 is the scenario's upper threshold, where nine minimizers tie.
    p = as_problem(build_sunflower(16, K16, 7))
    assert 5 ** len(p.cx.cell_names(2)) > ORACLE_LIMIT  # the cap-2 box
    before = solve(p, 2, max_minimizers=None)
    assert len(before.minimizers) == 9 and not before.truncated
    for cell in ("disk", "petal1", "petal7"):
        q = replace(p, cx=reverse(p.cx, 2, cell))
        _assert_same_solution(p, q, 2, lambda m: flip(m, cell))
    for edge in ("inner1", "arc7"):
        q = replace(p, cx=reverse(p.cx, 1, edge),
                    budget_chain=flip(p.budget_chain, edge), phi=flip(p.phi, edge))
        assert solve(q, 2, max_minimizers=None).minimizers == before.minimizers
