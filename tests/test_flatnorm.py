import random
from dataclasses import replace
from fractions import Fraction

import pytest

import pplateau.flatnorm as flatnorm
from pplateau.complexes import CellComplex, Chain, Cochain, boundary, pair
from pplateau.errors import DomainError, SearchSpaceError
from pplateau.flatnorm import (
    FlatCertificate,
    enumerate_flat_integral,
    flat_distance_integral,
    flat_norm_real,
    h_flat_distance,
    verify_real_certificate,
)
from pplateau.functionals import Integrand, h_mass, mass
from pplateau.lp import OPTIMAL, solve_lp

from tcommon import (
    certificates_agree,
    grid,
    grid_outer_boundary,
    interval,
    random_chain,
    random_complex,
    square,
)


def test_interval_boundary_fills_cheaply():
    cx = interval()  # filling with e costs 1, remainder would cost 2
    t = Chain(0, {"a": -1, "b": 1})
    cert = flat_norm_real(cx, t)
    assert cert.value == 1
    assert dict(cert.filling.items()) == {"e": 1}
    assert cert.remainder.is_zero
    assert verify_real_certificate(cx, t, cert)


def test_interval_expensive_edge_keeps_remainder():
    cx = interval(edge_measure=5)
    t = Chain(0, {"a": -1, "b": 1})
    cert = flat_norm_real(cx, t)
    assert cert.value == 2
    assert cert.filling.is_zero
    assert dict(cert.remainder.items()) == {"a": -1, "b": 1}
    assert verify_real_certificate(cx, t, cert)


def test_real_filling_can_be_fractional():
    # doubled boundary with a cheap vertex pair: half-filling is optimal
    cx = interval(edge_measure=2, va=Fraction(1, 2), vb=Fraction(1, 2))
    t = Chain(0, {"a": -2, "b": 2})
    cert = flat_norm_real(cx, t)
    assert cert.value == 2
    assert verify_real_certificate(cx, t, cert)
    ci = flat_distance_integral(cx, t, Chain(0, {}), cap=3)
    assert ci.value == 2  # integer filling ties here
    assert float(cert.value) <= float(ci.value) + 1e-9


def test_square_cycle_fills_with_both_faces():
    cx = square()
    cycle = Chain(1, {"pq": 1, "qr": 1, "rs": 1, "sp": 1})
    cert = flat_norm_real(cx, cycle)
    assert cert.value == 1  # total area below edge length 4
    assert dict(cert.filling.items()) == {"lower": 1, "upper": 1}
    assert verify_real_certificate(cx, cycle, cert)
    ci = flat_distance_integral(cx, cycle, Chain(1, {}), cap=2)
    ce = enumerate_flat_integral(cx, cycle, Chain(1, {}), cap=2)
    assert certificates_agree(ci, ce)
    assert ci.value == 1


def test_flat_norm_of_zero():
    cx = square()
    z = Chain(1, {})
    assert flat_norm_real(cx, z).value == 0
    assert flat_distance_integral(cx, z, z, cap=1).value == 0


def test_flat_distance_symmetry():
    rng = random.Random(41)
    for _ in range(20):
        cx = random_complex(rng)
        t1 = random_chain(rng, cx, 1)
        t2 = random_chain(rng, cx, 1)
        d12 = flat_distance_integral(cx, t1, t2, cap=3)
        d21 = flat_distance_integral(cx, t2, t1, cap=3)
        assert d12.value == d21.value


def test_flat_distance_triangle_inequality():
    rng = random.Random(42)
    for _ in range(15):
        cx = random_complex(rng)
        t1 = random_chain(rng, cx, 1, lo=-1, hi=1)
        t2 = random_chain(rng, cx, 1, lo=-1, hi=1)
        t3 = random_chain(rng, cx, 1, lo=-1, hi=1)
        d13 = flat_distance_integral(cx, t1, t3, cap=4).value
        d12 = flat_distance_integral(cx, t1, t2, cap=4).value
        d23 = flat_distance_integral(cx, t2, t3, cap=4).value
        assert d13 <= d12 + d23


def test_value_bounded_by_mass():
    rng = random.Random(43)
    for _ in range(25):
        cx = random_complex(rng)
        t = random_chain(rng, cx, 1)
        assert flat_distance_integral(cx, t, Chain(1, {}), cap=3).value \
            <= mass(cx, t)


def test_real_below_integral_on_randoms():
    rng = random.Random(44)
    for _ in range(30):
        cx = random_complex(rng)
        t = random_chain(rng, cx, 1)
        cr = flat_norm_real(cx, t)
        assert verify_real_certificate(cx, t, cr)
        ci = flat_distance_integral(cx, t, Chain(1, {}), cap=3)
        assert float(cr.value) <= float(ci.value) + 1e-9


def test_integral_matches_enumeration_on_randoms():
    rng = random.Random(45)
    for _ in range(30):
        cx = random_complex(rng)
        t1 = random_chain(rng, cx, 1, lo=-1, hi=1)
        t2 = random_chain(rng, cx, 1, lo=-1, hi=1)
        cap = rng.randint(1, 2)
        ci = flat_distance_integral(cx, t1, t2, cap=cap)
        ce = enumerate_flat_integral(cx, t1, t2, cap=cap)
        assert certificates_agree(ci, ce), (dict(t1.items()), dict(t2.items()))


def test_h_variant_matches_enumeration_on_randoms():
    rng = random.Random(46)
    h = Integrand.power(Fraction(1, 2))
    for _ in range(20):
        cx = random_complex(rng)
        t1 = random_chain(rng, cx, 1, lo=-1, hi=1)
        t2 = random_chain(rng, cx, 1, lo=-1, hi=1)
        ch = h_flat_distance(cx, t1, t2, h, cap=2)
        ce = enumerate_flat_integral(cx, t1, t2, cap=2, h=h)
        assert certificates_agree(ch, ce)


def test_enumeration_refuses_a_box_over_its_limit_before_building_fillings(monkeypatch):
    def no_boundary(*args):
        raise AssertionError("built a filling before checking the box size")
    monkeypatch.setattr(flatnorm, "boundary", no_boundary)
    assert 101 ** 4 > flatnorm.ENUMERATION_LIMIT  # grid(2) has four 2-cells
    with pytest.raises(SearchSpaceError):
        enumerate_flat_integral(grid(2), grid_outer_boundary(2), Chain(1, {}), cap=50)


def test_h_variant_inequalities():
    rng = random.Random(47)
    for h in (Integrand.power(Fraction(1, 2)),
              Integrand.table([(0, 0), (1, 1), (4, 2)])):
        h2 = float(h(2))
        for _ in range(15):
            cx = random_complex(rng)
            t = random_chain(rng, cx, 1, lo=-2, hi=2)
            fh = float(h_flat_distance(cx, t, Chain(1, {}), h, cap=3).value)
            f = float(flat_distance_integral(cx, t, Chain(1, {}), cap=3).value)
            assert fh <= h2 * f + 1e-9
            assert fh <= float(h_mass(cx, t, h)) + 1e-9


def _two_cycle_complex():
    """A small random complex, written out: two vertices, four edges, three faces."""
    cx = CellComplex()
    cx.add_cell(0, "v0", 3)
    cx.add_cell(0, "v1", 1)
    for name, mu in (("e0", 3), ("e1", 3), ("e2", 3), ("e3", 2)):
        cx.add_cell(1, name, mu)
    for name, face, sign in (("e1", "v0", -1), ("e1", "v1", -1), ("e2", "v0", 1),
                             ("e2", "v1", 1), ("e3", "v1", -1)):
        cx.add_face(1, name, face, sign)
    for name, mu in (("f0", 2), ("f1", 1), ("f2", 1)):
        cx.add_cell(2, name, mu)
    for name, face, sign in (("f0", "e1", -1), ("f1", "e0", 1), ("f1", "e1", -1),
                             ("f1", "e2", 1), ("f1", "e3", -1), ("f2", "e1", 1),
                             ("f2", "e3", -1)):
        cx.add_face(2, name, face, sign)
    return cx


def test_h_flat_distance_rejects_a_decreasing_cost():
    """H(1) = 3 > H(2) = 1: a row's least cost over an interval is then not at
    the end nearest zero, and the search returned 20 where the least filling
    costs 14. A cost that decreases where a row can reach is rejected."""
    cx = _two_cycle_complex()
    t1 = Chain(1, {"e1": 1, "e2": -1, "e3": 1})
    t2 = Chain(1, {"e0": -1, "e1": -1, "e2": -1, "e3": -1})
    h = Integrand.table([(0, 0), (1, 3), (2, 1), (3, 4)])
    assert enumerate_flat_integral(cx, t1, t2, cap=1, h=h).value == 14
    with pytest.raises(DomainError, match="nondecreasing"):
        h_flat_distance(cx, t1, t2, h, cap=1)
    # A decrease beyond every reachable remainder is harmless: at cap 0 the
    # remainder on a is 1, and H rises from 0 to 1.
    small = interval()
    t = Chain(0, {"a": 1})
    assert certificates_agree(h_flat_distance(small, t, Chain(0, {}), h, cap=0),
                              enumerate_flat_integral(small, t, Chain(0, {}), cap=0, h=h))


def test_h_flat_distance_accepts_a_flat_cost():
    cx = _two_cycle_complex()
    t1 = Chain(1, {"e1": 1, "e2": -1, "e3": 1})
    t2 = Chain(1, {"e0": -1, "e1": -1, "e2": -1, "e3": -1})
    h = Integrand.table([(0, 0), (1, 1), (2, 1)])
    for cap in (1, 2):
        assert certificates_agree(h_flat_distance(cx, t1, t2, h, cap),
                                  enumerate_flat_integral(cx, t1, t2, cap, h=h))


def test_cap_active_flag():
    cx = interval()
    t = Chain(0, {"a": -2, "b": 2})
    tight = flat_distance_integral(cx, t, Chain(0, {}), cap=1)
    snug = flat_distance_integral(cx, t, Chain(0, {}), cap=2)
    loose = flat_distance_integral(cx, t, Chain(0, {}), cap=3)
    assert tight.cap_active
    assert tight.value == 3  # one edge unit plus leftover boundary mass 2
    assert snug.value == 2
    assert snug.cap_active  # the optimal filling 2*e sits on the bound
    assert loose.value == 2
    assert not loose.cap_active


def test_identity_h_variant_equals_integral():
    """The identity-cost search against the exhaustive oracle, including
    complexes where about a quarter of the cells have measure 0 and caps 0-2."""
    rng = random.Random(48)
    ident = Integrand.identity()
    for i in range(45):
        cx = random_complex(rng, zero_share=0.25 if i % 2 else 0.0)
        t1 = random_chain(rng, cx, 1, lo=-1, hi=1)
        t2 = random_chain(rng, cx, 1, lo=-1, hi=1)
        cap = i % 3
        a = h_flat_distance(cx, t1, t2, ident, cap=cap)
        b = enumerate_flat_integral(cx, t1, t2, cap=cap)
        assert a.value == b.value
        assert a.filling == b.filling
        assert a.cap_active == b.cap_active


def test_dual_certificate_bounds():
    """The dual cochain from the real variant never exceeds cell measures and
    pays out exactly the optimal value against the input chain."""
    rng = random.Random(49)
    for _ in range(25):
        cx = random_complex(rng)
        t = random_chain(rng, cx, 1)
        cert = flat_norm_real(cx, t)
        dual = cert.dual
        assert dual is not None
        for name in cx.cell_names(1):
            assert abs(dual.get(name)) <= cx.measure(1, name)
        assert pair(dual, t) == cert.value


def test_remainder_identity():
    rng = random.Random(50)
    for _ in range(20):
        cx = random_complex(rng)
        t = random_chain(rng, cx, 1)
        for cert in (flat_norm_real(cx, t),
                     flat_distance_integral(cx, t, Chain(1, {}), cap=2)):
            assert cert.remainder == t - boundary(cx, cert.filling)


def test_non_integer_chain_rejected_by_integral():
    cx = interval()
    with pytest.raises(DomainError):
        flat_distance_integral(cx, Chain(0, {"a": Fraction(1, 2)}),
                               Chain(0, {}), cap=1)


def test_negative_cap_rejected():
    cx = interval()
    with pytest.raises(DomainError):
        flat_distance_integral(cx, Chain(0, {"a": 1}), Chain(0, {}), cap=-1)


def from_scratch_flat_norm(cx, t):
    """Reference real flat norm with one fresh LP per tightening stage.

    The base LP, then per (m+1)-cell in order an LP minimizing its coefficient
    over the optimal set with the earlier coefficients pinned (at the base
    solution's value when that LP has no optimum), then a final LP over all
    pins; if that one is infeasible the base filling stands. Returns the
    certificate and the number of stages without an optimum.
    """
    # Columns: R+ and R- per m-cell, then S+ and S- per (m+1)-cell, each
    # costing the cell's measure; one row per m-cell reads R + boundary(S) = T.
    sigmas, taus = cx.cell_names(t.dim), cx.cell_names(t.dim + 1)
    width = 2 * len(sigmas) + 2 * len(taus)

    def s_column(j):
        return 2 * len(sigmas) + 2 * j

    def pin_row(j):
        row = [Fraction(0)] * width
        row[s_column(j)], row[s_column(j) + 1] = Fraction(1), Fraction(-1)
        return row

    def filling_from(x):
        return Chain(t.dim + 1, {tau: x[s_column(j)] - x[s_column(j) + 1]
                                 for j, tau in enumerate(taus)})

    cost = []
    for dim, names in ((t.dim, sigmas), (t.dim + 1, taus)):
        for name in names:
            cost += [cx.measure(dim, name)] * 2
    rows = []
    for i, name in enumerate(sigmas):
        row = [Fraction(0)] * width
        row[2 * i], row[2 * i + 1] = Fraction(1), Fraction(-1)
        for j, tau in enumerate(taus):
            sign = cx.boundary_row(t.dim + 1, tau).get(name, 0)
            row[s_column(j)], row[s_column(j) + 1] = Fraction(sign), Fraction(-sign)
        rows.append(row)
    rhs = [Fraction(t.get(name)) for name in sigmas]
    res = solve_lp(cost, rows, rhs)
    assert res.status == OPTIMAL
    value = res.value
    dual = Cochain(t.dim, {name: res.y[i] for i, name in enumerate(sigmas) if res.y[i] != 0})
    pin_rows, pin_rhs = [], []
    filling = filling_from(res.x)
    open_stages = 0
    for j, tau in enumerate(taus):
        obj = pin_row(j)
        sub = solve_lp(obj, rows + [cost] + pin_rows, rhs + [value] + pin_rhs)
        if sub.status == OPTIMAL:
            w = sub.value
        else:
            open_stages += 1
            w = Fraction(filling.get(tau))
        pin_rows.append(obj)
        pin_rhs.append(w)
    if taus:
        final = solve_lp(cost, rows + [cost] + pin_rows, rhs + [value] + pin_rhs)
        if final.status == OPTIMAL:
            filling = filling_from(final.x)
    return FlatCertificate(value, filling, t - boundary(cx, filling), dual=dual), open_stages


def test_real_flat_norm_matches_from_scratch_stages():
    """Identical value, filling, remainder and dual on 200 instances, half of
    them with zero-measure cells, where some stages have no optimum."""
    rng = random.Random(7)
    unbounded = 0
    for i in range(200):
        cx = random_complex(rng, zero_share=0.25 if i % 2 else 0.0)
        t = random_chain(rng, cx, 1)
        cert = flat_norm_real(cx, t)
        ref, open_stages = from_scratch_flat_norm(cx, t)
        unbounded += open_stages > 0
        assert (cert.value, cert.filling, cert.remainder, cert.dual) == \
            (ref.value, ref.filling, ref.remainder, ref.dual)
        assert verify_real_certificate(cx, t, cert)
    assert unbounded >= 10


def test_real_flat_norm_reports_pinned_stages(monkeypatch):
    """`LPResult.pinned` counts the tightening stages unbounded on the optimal
    face (zero-measure cells), where no least filling coefficient exists."""
    results = []

    def recording(*args, **kwargs):
        results.append(solve_lp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(flatnorm, "solve_lp", recording)
    rng = random.Random(7)
    for i in range(400):
        cx = random_complex(rng, zero_share=0.25 if i % 2 else 0.0)
        flat_norm_real(cx, random_chain(rng, cx, 1))
    assert len(results) == 400
    assert sum(r.pinned > 0 for r in results) == 28
    assert sum(r.pinned for r in results) == 34
    assert all(r.pinned == 0 for r in results[::2])  # no zero-measure cells


@pytest.mark.parametrize("k", [1, Fraction(3, 2)])
def test_real_flat_norm_with_rational_measures(k):
    """A lens: edges a = p -> q of measure 5/2 and b = q -> p of measure 2/7
    bound one face of measure 1/3. For T = k a, filling s f costs
    (5/2 |1 - s| + (2/7 + 1/3) |s|) k, least at s = 1: R = -k b and the value
    is 13/21 k. The dual is y = (13/21, -2/7): |y_b| = 2/7 and |y_a + y_b| =
    1/3 are tight, so y_a can be no larger."""
    cx = CellComplex()
    cx.add_cell(0, "p", 1)
    cx.add_cell(0, "q", 1)
    cx.add_cell(1, "a", Fraction(5, 2))
    cx.add_cell(1, "b", Fraction(2, 7))
    cx.add_cell(2, "f", Fraction(1, 3))
    for edge, tail, head in (("a", "p", "q"), ("b", "q", "p")):
        cx.add_face(1, edge, tail, -1)
        cx.add_face(1, edge, head, 1)
    cx.add_face(2, "f", "a", 1)
    cx.add_face(2, "f", "b", 1)
    t = Chain(1, {"a": k})
    cert = flat_norm_real(cx, t)
    assert cert.value == Fraction(13, 21) * k
    assert cert.filling == Chain(2, {"f": k})
    assert cert.remainder == Chain(1, {"b": -k})
    assert cert.dual == Cochain(1, {"a": Fraction(13, 21), "b": Fraction(-2, 7)})
    assert verify_real_certificate(cx, t, cert)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_outer_boundary_real_flat_norm(n):
    cx = grid(n)
    t = grid_outer_boundary(n)
    cert = flat_norm_real(cx, t)
    assert cert.value == min(n * n, 4 * n)
    assert verify_real_certificate(cx, t, cert)


def test_real_certificate_check_rejects_each_tampered_part():
    cx, t = grid(2), grid_outer_boundary(2)
    cert = flat_norm_real(cx, t)
    assert verify_real_certificate(cx, t, cert)
    around_q00 = Cochain(1, {"h0_0": 1, "u1_0": 1, "h0_1": -1, "u0_0": -1})
    tampered = [
        replace(cert, dual=None),
        replace(cert, remainder=cert.remainder + Chain(1, {"h0_0": 1})),
        replace(cert, value=cert.value + 1),
        # each later dual passes every earlier test
        replace(cert, dual=Cochain(1, {"h0_0": 2})),     # exceeds a 1-cell's measure
        replace(cert, dual=around_q00),                   # coboundary 4 on q0_0
        replace(cert, dual=Cochain(1, {})),               # pairs with t to 0
    ]
    for bad in tampered:
        assert not verify_real_certificate(cx, t, bad)


@pytest.mark.parametrize("n, pivots", [(3, 51), (4, 73)])
def test_real_flat_norm_is_one_lp_with_pinned_pivots(monkeypatch, n, pivots):
    """One LP call per real flat norm. The 3x3 optimum is unique, so its
    stages pivot no more; the 4x4 grid ties filling and remainder at 16, and
    tightening moves from the base filling to the empty one."""
    results = []

    def recording(*args, **kwargs):
        results.append(solve_lp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(flatnorm, "solve_lp", recording)
    cert = flat_norm_real(grid(n), grid_outer_boundary(n))
    assert cert.value == min(n * n, 4 * n)
    assert [r.pivots for r in results] == [pivots]
