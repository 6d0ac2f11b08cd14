import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import pplateau.slicer as slicer
from pplateau.complexes import CellComplex, Chain, boundary
from pplateau.errors import DegenerateSliceError, DomainError
from pplateau.functionals import Integrand
from pplateau.slicer import (
    McEstimate,
    PolyhedralChain,
    cone,
    cone_mass_bound,
    embed_chain,
    mc_h_mass,
    poly_boundary,
    poly_h_mass,
    poly_mass,
    simplex_volume,
    slice_chain,
)

from tcommon import interval, square

IDENT = Integrand.identity()
SQRT = Integrand.power(Fraction(1, 2))
TABLE = Integrand.table([(0, 0), (1, 1), (2, Fraction(3, 2)), (4, 2)])

P00, P10, P11, P01 = (0, 0), (1, 0), (1, 1), (0, 1)
TRI = ((P00, P10, P11), 1)
SEG2 = PolyhedralChain(1, 2, [(((0, 0), (1, 0)), 2)])
F = Fraction
POLYLINE_R3 = PolyhedralChain(1, 3, [
    ((a, b), w) for a, b, w in zip(
        [(0, -3, F(-5, 2)), (1, F(-4, 3), -6), (2, F(-5, 3), -1), (3, 6, F(-4, 3)),
         (4, -2, -6), (5, -1, F(5, 2)), (6, 1, -1)],
        [(1, F(-4, 3), -6), (2, F(-5, 3), -1), (3, 6, F(-4, 3)), (4, -2, -6),
         (5, -1, F(5, 2)), (6, 1, -1)],
        [-3, -3, -3, 5, 1, -1])])
DOUBLED_SQUARE_R3 = PolyhedralChain(2, 3, [
    (((0, 0, 0), (1, 0, 0), (1, 1, 0)), 2),
    (((0, 0, 0), (1, 1, 0), (0, 1, 0)), 2),
])


def segment(a, b, w=1, ambient=2):
    return PolyhedralChain(1, ambient, [((a, b), w)])


# ---------------------------------------------------------------- structure

def test_constructor_validation():
    with pytest.raises(DomainError):
        PolyhedralChain(2, 1)
    with pytest.raises(DomainError):
        PolyhedralChain(-1, 2)
    with pytest.raises(DomainError):
        PolyhedralChain(1, 2, [(((0, 0), (1, 0)), Fraction(1))])
    with pytest.raises(DomainError):
        PolyhedralChain(1, 2, [(((0, 0), (1, 0)), True)])
    with pytest.raises(DomainError):
        PolyhedralChain(1, 2, [(((0, 0),), 1)])
    with pytest.raises(DomainError):
        PolyhedralChain(1, 2, [(((0, 0, 0), (1, 0, 0)), 1)])


def test_zero_weights_are_dropped():
    p = PolyhedralChain(1, 2, [(((0, 0), (1, 0)), 0)])
    assert p.is_zero


def test_orientation_reversal_cancels():
    p = PolyhedralChain(1, 2, [(((0, 0), (1, 0)), 1), (((1, 0), (0, 0)), 1)])
    assert p.canonical() == {}
    assert p == PolyhedralChain(1, 2)
    assert poly_mass(p) == 0


def test_repeated_simplices_merge():
    p = PolyhedralChain(1, 2, [(((0, 0), (1, 0)), 1), (((0, 0), (1, 0)), 1)])
    assert p == SEG2
    assert poly_mass(p) == pytest.approx(2.0)
    assert poly_h_mass(p, SQRT) == pytest.approx(math.sqrt(2))


def test_repeats_are_stored_once_in_first_listed_order():
    ab, ba, bc = ((0, 0), (1, 0)), ((1, 0), (0, 0)), ((1, 0), (1, 1))
    p = PolyhedralChain(1, 2, [(ba, -1), (bc, 1), (ab, 3)])
    assert p.simplices == PolyhedralChain(1, 2, [(ba, -4), (bc, 1)]).simplices
    assert PolyhedralChain(1, 2, [(ab, 1), (ba, 1)]).is_zero
    (a, b, c), _ = DOUBLED_SQUARE_R3.simplices[0]
    quad = DOUBLED_SQUARE_R3 + PolyhedralChain(2, 3, [((a, b, c), 1), ((a, c, b), 1)])
    assert quad.simplices == DOUBLED_SQUARE_R3.simplices


def test_chain_arithmetic():
    a = segment((0, 0), (1, 0))
    b = segment((1, 0), (1, 1))
    s = a + b
    assert len(s.simplices) == 2
    assert (a - a).canonical() == {}
    assert (-a).canonical() == {(((Fraction(0), Fraction(0)),
                                  (Fraction(1), Fraction(0)))): -1}
    with pytest.raises(DomainError):
        a + PolyhedralChain(1, 3, [(((0, 0, 0), (1, 0, 0)), 1)])


def test_immutability():
    with pytest.raises(AttributeError):
        SEG2.dim = 2


# ---------------------------------------------------------------- volume

def test_simplex_volume_knowns():
    assert simplex_volume([(3, 4)]) == 1.0  # point: counting measure
    assert simplex_volume([(0, 0), (1, 0)]) == pytest.approx(1.0)
    assert simplex_volume([(0, 0, 0), (1, 1, 1)]) == pytest.approx(math.sqrt(3))
    assert simplex_volume([P00, P10, P01]) == pytest.approx(0.5)
    assert simplex_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) \
        == pytest.approx(1 / 6)
    assert simplex_volume([(0, 0), (1, 0), (2, 0)]) == pytest.approx(0.0)


def test_masses_use_net_multiplicity():
    two_copies = PolyhedralChain(2, 2, [TRI, TRI])
    assert poly_mass(two_copies) == pytest.approx(1.0)
    assert poly_h_mass(two_copies, SQRT) == pytest.approx(0.5 * math.sqrt(2))
    assert poly_h_mass(two_copies, IDENT) == pytest.approx(poly_mass(two_copies))


# ---------------------------------------------------------------- boundary

def test_triangle_boundary():
    t = PolyhedralChain(2, 2, [TRI])
    b = poly_boundary(t)
    assert poly_mass(b) == pytest.approx(2 + math.sqrt(2))
    assert poly_boundary(b).is_zero


def test_square_diagonal_cancels():
    sq = PolyhedralChain(2, 2, [((P00, P10, P11), 1), ((P00, P11, P01), 1)])
    b = poly_boundary(sq)
    canon = b.canonical()
    assert len(canon) == 4
    assert poly_mass(b) == pytest.approx(4.0)
    assert poly_boundary(b).is_zero


def test_boundary_of_points_is_zero():
    pts = PolyhedralChain(0, 2, [(((0, 0),), 3)])
    assert poly_boundary(pts).is_zero


# ---------------------------------------------------------------- cones

def _random_poly(rng, dim, ambient, count=3, span=4):
    simplices = []
    for _ in range(count):
        verts = tuple(tuple(Fraction(rng.randint(-span, span), rng.choice([1, 2, 3]))
                            for _ in range(ambient)) for _ in range(dim + 1))
        simplices.append((verts, rng.choice([-2, -1, 1, 2])))
    return PolyhedralChain(dim, ambient, simplices)


def test_cone_homotopy_identity_exact():
    rng = random.Random(55)
    for ambient in (2, 3):
        for _ in range(40):
            z = _random_poly(rng, 1, ambient)
            apex = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
                         for _ in range(ambient))
            c = cone(z, apex)
            assert poly_boundary(c) + cone(poly_boundary(z), apex) == z


def test_cone_mass_bound_holds():
    rng = random.Random(56)
    for _ in range(40):
        z = _random_poly(rng, 1, 3)
        apex = tuple(rng.randint(-4, 4) for _ in range(3))
        c = cone(z, apex)
        assert poly_mass(c) <= cone_mass_bound(z, apex) + 1e-9


def test_degenerate_joins_carry_no_mass():
    z = segment((0, 0), (1, 0))
    flat = cone(z, (2, 0))  # apex on the segment's line
    assert poly_mass(flat) == 0.0
    assert poly_boundary(flat) + cone(poly_boundary(z), (2, 0)) == z
    proper = cone(z, (0, 1))
    assert poly_mass(proper) == pytest.approx(0.5)


def test_cone_identity_with_apex_on_a_vertex():
    z = segment((0, 0), (1, 0)) + segment((1, 0), (1, 1), w=2)
    apex = (1, 0)
    assert poly_boundary(cone(z, apex)) + cone(poly_boundary(z), apex) == z


def test_cone_validation():
    z = segment((0, 0), (1, 0))
    with pytest.raises(DomainError):
        cone(z, (1, 2, 3))
    full = PolyhedralChain(2, 2, [TRI])
    with pytest.raises(DomainError):
        cone(full, (0, 0))


# ---------------------------------------------------------------- slicing

def test_slice_multiplicity_two_segment():
    zc = slice_chain(SEG2, [[1.0, 0.0]], [0.5])
    assert zc.points == (((0.5, 0.0), 2),)
    assert zc.total_weight() == 2
    assert zc.mass() == pytest.approx(2.0)
    assert zc.h_mass(SQRT) == pytest.approx(math.sqrt(2))


def test_slice_merges_repeated_simplices():
    ab, ba = ((0, 0), (1, 0)), ((1, 0), (0, 0))
    cancelled = PolyhedralChain(1, 2, [(ab, 1), (ba, 1)])
    assert slice_chain(cancelled, [[1.0, 0.0]], [0.5]).points == ()
    twice = PolyhedralChain(1, 2, [(ab, 1), (ab, 1)])
    assert slice_chain(twice, [[1.0, 0.0]], [0.5]).points == (((0.5, 0.0), 2),)


def test_slice_misses_cleanly():
    zc = slice_chain(SEG2, [[1.0, 0.0]], [2.5])
    assert zc.points == ()
    assert zc.mass() == 0


def test_slice_endpoint_degenerate():
    with pytest.raises(DegenerateSliceError):
        slice_chain(SEG2, [[1.0, 0.0]], [0.0])


def test_slice_tangent_plane():
    vertical = segment((0, 0), (0, 1))
    with pytest.raises(DegenerateSliceError):
        slice_chain(vertical, [[1.0, 0.0]], [0.0])
    assert slice_chain(vertical, [[1.0, 0.0]], [0.5]).points == ()


def test_slice_of_cycle_has_zero_net_weight():
    sq = PolyhedralChain(2, 2, [((P00, P10, P11), 1), ((P00, P11, P01), 1)])
    ring = poly_boundary(sq)
    zc = slice_chain(ring, [[1.0, 0.0]], [0.5])
    assert zc.total_weight() == 0
    assert zc.mass() == pytest.approx(2.0)
    xs = sorted(pt[1] for pt, _ in zc.points)
    assert xs == pytest.approx([0.0, 1.0])


def test_slice_orientation_sign():
    fwd = slice_chain(segment((0, 0), (1, 0)), [[1.0, 0.0]], [0.5])
    rev = slice_chain(segment((1, 0), (0, 0)), [[1.0, 0.0]], [0.5])
    assert fwd.total_weight() == 1
    assert rev.total_weight() == -1


def test_slice_codimension_zero():
    sq = PolyhedralChain(2, 2, [((P00, P10, P11), 1), ((P00, P11, P01), 1)])
    zc = slice_chain(sq, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.25])
    assert zc.points == (((0.5, 0.25), 1),)
    with pytest.raises(DegenerateSliceError):
        # the level sits on the shared diagonal
        slice_chain(sq, [[1.0, 0.0], [0.0, 1.0]], [0.25, 0.25])


def test_slice_projection_validation():
    with pytest.raises(DomainError):
        slice_chain(SEG2, [[1.0, 1.0]], [0.5])  # not unit length
    with pytest.raises(DomainError):
        slice_chain(SEG2, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])  # wrong shape
    with pytest.raises(DomainError):
        slice_chain(PolyhedralChain(0, 2, [(((0, 0),), 1)]), [[1.0, 0.0]], [0.0])


@pytest.mark.parametrize("level", [[0.5, 0.5], [], [[0.5, 0.5]], "half", ["a"], None,
                                   [math.nan], [math.inf], [-math.inf]])
def test_slice_level_validation(level):
    with pytest.raises(DomainError):
        slice_chain(SEG2, [[1.0, 0.0]], level)


def test_slice_level_of_one_number_may_be_a_scalar():
    assert slice_chain(SEG2, [[1.0, 0.0]], 0.5) == slice_chain(SEG2, [[1.0, 0.0]], [[0.5]])


# ---------------------------------------------------------------- embedding

SQUARE_COORDS = {"p": (0, 0), "q": (1, 0), "r": (1, 1), "s": (0, 1)}


def test_embed_interval_edge():
    cx = interval()
    p = embed_chain(cx, Chain(1, {"e": 2}), {"a": (0, 0), "b": (1, 0)})
    assert p == SEG2


def test_embed_square_faces_and_boundary_commute():
    cx = square()
    top = Chain(2, {"lower": 1, "upper": 1})
    p = embed_chain(cx, top, SQUARE_COORDS)
    assert poly_mass(p) == pytest.approx(1.0)
    direct = embed_chain(cx, boundary(cx, top), SQUARE_COORDS)
    assert poly_boundary(p) == direct


def test_embed_respects_orientation_sign():
    cx = square()
    p = embed_chain(cx, Chain(2, {"lower": -1}), SQUARE_COORDS)
    assert p.canonical() == {
        tuple(tuple(map(Fraction, v)) for v in (P00, P10, P11)): -1}


def test_embed_rejections():
    cx = square()
    with pytest.raises(DomainError):
        embed_chain(cx, Chain(1, {"pq": Fraction(1, 2)}), SQUARE_COORDS)
    with pytest.raises(DomainError):
        embed_chain(cx, Chain(1, {"nope": 1}), SQUARE_COORDS)
    with pytest.raises(DomainError):
        embed_chain(cx, Chain(1, {"pq": 1}), {"p": (0, 0)})
    with pytest.raises(DomainError):
        embed_chain(cx, Chain(1, {"pq": 1}), {})
    with pytest.raises(DomainError):
        embed_chain(cx, Chain(1, {"pq": 1}), {"p": (0, 0), "q": (1, 0, 0)})
    with pytest.raises(DomainError):
        embed_chain(cx, Chain(3, {"x": 1}), SQUARE_COORDS)


def test_embed_rejects_broken_cycle():
    from pplateau.complexes import CellComplex
    cx = CellComplex()
    for v in ("u", "v", "w"):
        cx.add_cell(0, v, 1)
    for e, (t, h) in {"e1": ("u", "v"), "e2": ("u", "v")}.items():
        cx.add_cell(1, e, 1)
        cx.add_face(1, e, t, -1)
        cx.add_face(1, e, h, 1)
    cx.add_cell(2, "f", 1)
    cx.add_face(2, "f", "e1", 1)
    cx.add_face(2, "f", "e2", 1)  # both edges leave u: not a simple cycle
    with pytest.raises(DomainError):
        embed_chain(cx, Chain(2, {"f": 1}),
                    {"u": (0, 0), "v": (1, 0), "w": (0, 1)})


# ---------------------------------------------------------------- sampling

def test_mc_requires_two_samples():
    with pytest.raises(DomainError):
        mc_h_mass(SEG2, IDENT, 1, 0)


@pytest.mark.parametrize("samples, seed", [
    (100, -3), (100.0, 1), (100, 1.0), (100, "1"), (True, 1), (100, True), (100, False),
])
def test_mc_rejects_bad_sample_counts_and_seeds(samples, seed):
    with pytest.raises(DomainError):
        mc_h_mass(SEG2, IDENT, samples, seed)


def test_mc_zero_chain():
    est = mc_h_mass(PolyhedralChain(1, 2), IDENT, 100, 0)
    assert est.estimate == 0.0
    assert est.stderr == 0.0
    assert est.calibration == 1.0
    assert est.samples == 100
    assert est.resampled == 0


def test_mc_reproducible():
    a = mc_h_mass(SEG2, SQRT, 4000, 42)
    b = mc_h_mass(SEG2, SQRT, 4000, 42)
    assert a == b
    c = mc_h_mass(SEG2, SQRT, 4000, 43)
    assert c.estimate != a.estimate


def test_mc_regression_anchor():
    est = mc_h_mass(SEG2, SQRT, 50000, 42)
    assert est.estimate == 1.4175709608296292


def test_mc_identity_recovers_mass():
    est = mc_h_mass(SEG2, IDENT, 20000, 7)
    assert est.estimate == pytest.approx(2.0, rel=0.05)
    assert est.stderr > 0


def test_mc_concave_cost_on_doubled_segment():
    est = mc_h_mass(SEG2, SQRT, 20000, 7)
    assert est.estimate == pytest.approx(math.sqrt(2), rel=0.05)


def test_mc_calibration_constant():
    est = mc_h_mass(SEG2, IDENT, 20000, 11)
    assert est.calibration == 2 / math.pi


def test_mc_merges_repeated_simplices():
    ab, ba = ((0, 0), (1, 0)), ((1, 0), (0, 0))
    cancelled = PolyhedralChain(1, 2, [(ab, 1), (ba, 1)])
    assert mc_h_mass(cancelled, SQRT, 20000, 1) == McEstimate(0.0, 0.0, 1.0, 20000, 0)
    twice = PolyhedralChain(1, 2, [(ab, 1), (ab, 1)])
    est = mc_h_mass(twice, SQRT, 20000, 1)
    assert abs(est.estimate - math.sqrt(2)) <= 5 * est.stderr, est
    assert est == mc_h_mass(SEG2, SQRT, 20000, 1)


def test_mc_surface_area():
    sq = PolyhedralChain(2, 3, [
        (((0, 0, 0), (1, 0, 0), (1, 1, 0)), 1),
        (((0, 0, 0), (1, 1, 0), (0, 1, 0)), 1),
    ])
    est = mc_h_mass(sq, IDENT, 300, 3)
    assert est.estimate == pytest.approx(1.0, rel=0.2)


# ------------------------------------------------- sampling: 1-chains pinned

# Whole estimates recorded when the closed-form beta_1 replaced the calibration
# run; the raw samples behind them are pinned to the bit further down.
@pytest.mark.parametrize("chain, h, samples, seed, expected", [
    (SEG2, SQRT, 4000, 42, McEstimate(1.403533081994378, 0.010805128621377636,
                                      2 / math.pi, 4000, 0)),
    (SEG2, SQRT, 20000, 7, McEstimate(1.4201145901960943, 0.004830591885050114,
                                      2 / math.pi, 20000, 0)),
    (POLYLINE_R3, TABLE, 20000, 5, McEstimate(63.126479248329254, 0.21272724030541404,
                                              0.5, 20000, 0)),
])
def test_mc_one_chains_bit_identical(chain, h, samples, seed, expected):
    assert mc_h_mass(chain, h, samples, seed) == expected


_ZIGZAG = [(i, (i * 7) % 5 - 2, F((i * 3) % 7 - 3, 2), F(-i, 3)) for i in range(13)]
POLYLINE_12_R4 = PolyhedralChain(1, 4, [
    ((a, b), w) for a, b, w in zip(_ZIGZAG, _ZIGZAG[1:], [1, -2, 3, -1, 2, -3, 1, 3, -2, -1, 2, -3])])
OVERLAPS_R1 = PolyhedralChain(1, 1, [(((0,), (2,)), 3), (((F(1, 2),), (F(7, 2),)), -1),
                                     (((5,), (4,)), 2)])


# Recorded with the sample-major kernel. Twelve simplices reach numpy's
# pairwise summation (8 terms and up), which a reordered weighted sum would
# change; R^1 has only the directions +1 and -1.
@pytest.mark.parametrize("chain, h, samples, seed, expected", [
    (POLYLINE_12_R4, SQRT, 20000, 9, McEstimate(51.746136921014084, 0.2538756933562166,
                                                0.42441318157838753, 20000, 0)),
    (OVERLAPS_R1, TABLE, 20000, 3, McEstimate(8.0355, 0.03086941157567717, 1.0, 20000, 0)),
])
def test_mc_one_chains_bit_identical_long_and_one_dimensional(chain, h, samples, seed,
                                                              expected):
    assert mc_h_mass(chain, h, samples, seed) == expected


# sha256 of the stream-0 raw samples, recorded before the closed-form beta_1
# replaced the calibration run, which only changed what divides their mean.
@pytest.mark.parametrize("chain, h, samples, seed, digest", [
    (SEG2, SQRT, 4000, 42, "64e3393c4028ee99aadac96afb22b295ad8453ed800c8c49aa44420228a64b62"),
    (SEG2, SQRT, 20000, 7, "7629d08968880ecc2a0e89c93b099ff74024c022421bda28f05d1acd32aa8e51"),
    (SEG2, SQRT, 50000, 42, "b04cb4f59b372627856e499a209b268c0f28048904c570a44b33a9c91f73c631"),
    (POLYLINE_R3, TABLE, 20000, 5,
     "7455ed193799a3d7be0c4f325ef809d8306016c00eebf3ae19bfe7e340a75518"),
    (POLYLINE_12_R4, SQRT, 20000, 9,
     "0300aae3285b8ec8045da6380eb0d2950cfd2a112a04644b7c2bba5c34ba57be"),
    (OVERLAPS_R1, TABLE, 20000, 3,
     "a9566f3862e0f88d1821ab7aba4efc363533c06469c04aac43b32adb3de3e637"),
])
def test_raw_samples_pinned(chain, h, samples, seed, digest):
    raw, resampled = slicer._raw_samples(chain, h, samples, seed)
    assert resampled == 0
    assert hashlib.sha256(raw.tobytes()).hexdigest() == digest


def _line_values_reference(dirs, u, verts, hw):
    """The 1-chain rules, one sample and one simplex at a time."""
    values, flags = [], []
    for d, t in zip(dirs.tolist(), u.tolist()):
        ends = [sorted(sum(c * x for c, x in zip(d, v)) for v in seg) for seg in verts.tolist()]
        blo = min(lo for lo, _ in ends)
        vol = max(hi for _, hi in ends) - blo
        y = blo + t * vol
        margin = 1e-9 * max(1.0, abs(y))
        flags.append(vol <= 1e-12 or any(abs(y - e) <= margin for seg in ends for e in seg))
        values.append(vol * sum(w for (lo, hi), w in zip(ends, hw.tolist())
                                if lo + margin < y < hi - margin))
    return np.array(values), np.array(flags)


def _dyadic_line_cases():
    """Inputs whose projections and sums are exact in any order.

    Coordinates are quarters, direction entries halves, levels eighths and
    weights dyadic, so the kernel and the reference must agree to the bit.
    Coarse grids put many levels exactly on projected endpoints.
    """
    rng = np.random.default_rng(2024)
    cases = []
    for n, s, k in [(1, 3, 40), (2, 5, 60), (3, 9, 60), (4, 14, 80), (2, 20, 40)]:
        verts = rng.integers(-8, 9, size=(s, 2, n)) / 4
        dirs = rng.integers(-2, 3, size=(k, n)) / 2
        dirs[::7] = 0.0  # zero directions: empty boxes
        u = rng.integers(0, 9, size=k) / 8
        hw = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], size=s)
        cases.append((dirs, u, verts, hw))
    # y = 1 is the high end of [0, 1] and no simplex's low end
    segments = np.array([[[0.0], [1.0]], [[0.0], [2.0]]])
    cases.append((np.ones((1, 1)), np.array([0.5]), segments, np.array([1.0, 2.0])))
    # y = 2^-30 is within the margin's floor of 1e-9, but not of 1e-9 * |y|
    cases.append((np.ones((1, 1)), np.array([2.0 ** -30]), segments[:1], np.array([1.0])))
    return cases


def _simplex_vertices(p):
    """Float coordinates of every simplex's vertices, (s, m + 1, n), built
    here so the oracles' inputs do not come from the code under test."""
    return np.array([[[float(c) for c in v] for v in s] for s, _ in p.simplices], dtype=float)


def _sample_major_line_values(dirs, u, verts, hw):
    """The (k, s) layout the simplex-major kernel replaced: its bit-level oracle."""
    a = np.einsum("kn,sn->ks", dirs, verts[:, 0, :])
    b = np.einsum("kn,sn->ks", dirs, verts[:, 1, :])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    blo = lo.min(axis=1)
    vol = hi.max(axis=1) - blo
    y = blo + u * vol
    margin = 1e-9 * np.maximum(1.0, np.abs(y))[:, None]
    inside = (y[:, None] > lo + margin) & (y[:, None] < hi - margin)
    near = (np.abs(y[:, None] - lo) <= margin) | (np.abs(y[:, None] - hi) <= margin)
    return vol * (inside * hw[None, :]).sum(axis=1), (vol <= 1e-12) | near.any(axis=1)


def _split_vertices(verts):
    """(s, 2, n) segment endpoints as the kernel's vertex table: the distinct
    rows in first-seen order (V, n) and each segment's row indices (s, 2)."""
    rows = verts.reshape(-1, verts.shape[-1])
    first = {}  # bytes, not values: 0.0 and -0.0 stay distinct vertices
    for i, row in enumerate(rows):
        first.setdefault(row.tobytes(), i)
    index = {key: j for j, key in enumerate(first)}
    ends = [index[row.tobytes()] for row in rows]
    return rows[list(first.values())], np.array(ends).reshape(-1, 2)


# A whole estimate averages away a last-bit change in single samples, so the
# pins above can miss a reordered sum or a BLAS projection; this cannot.
@pytest.mark.parametrize("seed", range(6))
def test_line_values_bit_identical_to_sample_major_layout(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 4):
        s = int(rng.integers(9, 21)) if seed % 2 else int(rng.integers(1, 9))
        k = 300
        verts = rng.uniform(-1, 1, size=(s, 2, n))  # overlapping: many crossings per level
        dirs = rng.standard_normal((k, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        dirs[::50] = 0.0
        u = rng.random(k)
        hw = np.sqrt(rng.integers(1, 4, size=s).astype(float))
        values, degenerate = slicer._line_values(dirs, u, *_split_vertices(verts), hw)
        want_values, want_degenerate = _sample_major_line_values(dirs, u, verts, hw)
        assert values.tobytes() == want_values.tobytes()
        assert degenerate.tolist() == want_degenerate.tolist()


@pytest.mark.parametrize("case", range(7))
def test_line_values_match_per_sample_reference(case):
    dirs, u, verts, hw = _dyadic_line_cases()[case]
    values, degenerate = slicer._line_values(dirs, u, *_split_vertices(verts), hw)
    want_values, want_degenerate = _line_values_reference(dirs, u, verts, hw)
    assert values.tolist() == want_values.tolist()
    assert degenerate.tolist() == want_degenerate.tolist()
    if case < 5:
        assert degenerate.any() and not degenerate.all()
    else:
        assert degenerate.all()


def _polyline(points, weights):
    return PolyhedralChain(1, len(points[0]), list(zip(zip(points, points[1:]), weights)))


def _shared_vertex_chains():
    """1-chains whose segments share vertices, which the random cases above never do."""
    rng = random.Random(14)

    def point(n, shift=0):
        return tuple(F(rng.randint(-12, 12), rng.randint(1, 4)) + shift for _ in range(n))

    weights = [1, -2, 3, -1, 2] * 60
    chains = {f"polyline-{s}": _polyline([point(3) for _ in range(s + 1)], weights)
              for s in (1, 5, 7, 8, 9, 40, 127, 128, 129, 300)}
    ring = [point(2) for _ in range(9)]
    chains["ring-9"] = _polyline(ring + ring[:1], weights)
    hub = point(4)
    chains["star-12"] = PolyhedralChain(1, 4, [((hub, point(4)), w) for w in weights[:12]])
    # two polylines 100 apart: levels in the gap cross nothing
    chains["gap-18"] = (_polyline([point(2) for _ in range(10)], weights)
                        + _polyline([point(2, 100) for _ in range(10)], weights[1:]))
    # distinct rationals that round to one float: equal rows in the vertex table
    a, b = (F(1, 3), F(1, 2)), (F(1, 3) + F(1, 10 ** 30), F(1, 2))
    chains["float-twins"] = PolyhedralChain(1, 2, [
        (((0, 0), a), 1), ((a, (1, 1)), 2), (((0, 1), b), -1), ((b, (1, 0)), 3)])
    return chains


SHARED_VERTEX_CHAINS = _shared_vertex_chains()


def test_shared_vertex_chains_share_vertices():
    tables = {name: slicer._vertex_table(c) for name, c in SHARED_VERTEX_CHAINS.items()}
    for name, (points, ends) in tables.items():
        assert len(points) == len({v for s, _ in SHARED_VERTEX_CHAINS[name].simplices for v in s})
        assert len(points) < 2 * len(ends) or name == "polyline-1"
    assert np.bincount(tables["star-12"][1].ravel()).max() == 12
    points = tables["float-twins"][0]
    assert len(points) == 6 and len(np.unique(points, axis=0)) == 5


# Zero directions and levels placed on projected vertices make degenerate
# samples; zero and negative weights, which broken table costs give, make -0.0
# terms, and numpy's sum starts from 0, so a sum of them is 0.0.
@pytest.mark.parametrize("name", sorted(SHARED_VERTEX_CHAINS))
def test_line_values_on_shared_vertices_bit_identical_to_sample_major_layout(name):
    chain = SHARED_VERTEX_CHAINS[name]
    points, ends = slicer._vertex_table(chain)
    verts = _simplex_vertices(chain)
    rng = np.random.default_rng(len(ends))
    k = 400
    dirs = rng.standard_normal((k, chain.ambient))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    dirs[::40] = 0.0
    u = rng.random(k)
    proj = dirs @ points.T
    on = np.arange(1, k, 5)  # u that puts the level on (or within rounding of) a vertex
    vertex = proj[on, rng.integers(len(points), size=on.size)]
    u[on] = (vertex - proj[on].min(axis=1)) / np.ptp(proj[on], axis=1)
    weights = np.array([float(TABLE(abs(w))) for _, w in chain.simplices])
    for hw in (weights, -weights, rng.choice([-1.5, -0.5, 0.0, 1.0, 2.0], size=len(ends))):
        values, degenerate = slicer._line_values(dirs, u, points, ends, hw)
        want_values, want_degenerate = _sample_major_line_values(dirs, u, verts, hw)
        assert values.tobytes() == want_values.tobytes()
        assert degenerate.tolist() == want_degenerate.tolist()
        assert degenerate[on].all() and not degenerate.all()


def test_row_sum_is_numpy_pairwise_sum_to_the_bit():
    rng = np.random.default_rng(300)
    for s in range(1, 301):
        rows = rng.standard_normal((s, 5)) * 10.0 ** rng.integers(-12, 13, size=(s, 5))
        rows[:, 0] = -0.0
        want = np.add.reduce(np.ascontiguousarray(rows.T), axis=1)
        assert slicer._row_sum(rows).tobytes() == want.tobytes(), s


def test_degenerate_samples_are_redrawn_in_the_next_round(monkeypatch):
    clean, _ = slicer._raw_samples(POLYLINE_R3, TABLE, 300, 5)
    kernel, calls = slicer._line_values, []

    def flaky(dirs, u, *geometry):
        values, degenerate = kernel(dirs, u, *geometry)
        calls.append(values)
        if len(calls) == 1:  # round 0, in one chunk: flag every third sample
            degenerate = degenerate | (np.arange(len(u)) % 3 == 0)
        return values, degenerate

    monkeypatch.setattr(slicer, "_line_values", flaky)
    raw, resampled = slicer._raw_samples(POLYLINE_R3, TABLE, 300, 5)
    redrawn = np.arange(300) % 3 == 0
    assert resampled == 100 and len(calls) == 2
    assert raw[~redrawn].tobytes() == clean[~redrawn].tobytes()
    assert raw[redrawn].tobytes() == calls[1].tobytes()


# The sampler's direction norms take a running sum below 8 coordinates and
# np.linalg.norm from 8 on; every sample must equal np.linalg.norm's to the bit.
@pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 12])
def test_raw_samples_bit_identical_to_linalg_norm_directions(n):
    pts = [tuple(F((i * j * 5 + i) % 11 - 5, 1 + (i + j) % 3) for j in range(n))
           for i in range(10)]
    chain = PolyhedralChain(1, n, [((a, b), w) for a, b, w in zip(pts, pts[1:], [1, -2, 3] * 3)])
    k, seed = 4000, 5
    raw, resampled = slicer._raw_samples(chain, SQRT, k, seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, 0, 0))))
    g = rng.standard_normal((k, n))
    dirs = g / np.linalg.norm(g, axis=1)[:, None]
    hw = np.array([float(SQRT(abs(w))) for _, w in chain.simplices])
    want, degenerate = _sample_major_line_values(dirs, rng.random(k),
                                                 _simplex_vertices(chain), hw)
    assert resampled == 0 and not degenerate.any()
    assert raw.tobytes() == want.tobytes()


# ------------------------------------------------- sampling: 2-chains

def _unit_square(n):
    a, b, c, d = ((x, y) + (0,) * (n - 2) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))
    return PolyhedralChain(2, n, [((a, b, c), 1), ((a, c, d), 1)])


def test_two_chain_raw_samples_pinned():
    # Recorded with the 1-chain pins above. QR goes through LAPACK, whose last
    # bits may differ between builds, so the samples are compared by moments.
    raw, resampled = slicer._raw_samples(DOUBLED_SQUARE_R3, SQRT, 2000, 42)
    assert resampled == 0
    assert raw.mean() == pytest.approx(0.6919842202513239, rel=1e-9)
    assert raw.std(ddof=1) == pytest.approx(0.805899844276314, rel=1e-9)
    assert raw @ np.arange(raw.size) == pytest.approx(1409376.2435128791, rel=1e-9)


def test_crofton_beta_known_values():
    assert slicer._crofton_beta(2, 1) * math.pi == 2
    assert slicer._crofton_beta(3, 2) == 0.5
    assert [slicer._crofton_beta(n, n) for n in range(1, 12)] == [1.0] * 11


def test_crofton_beta_matches_log_gamma_formula():
    for n in range(1, 40):
        for m in range(1, n + 1):
            want = math.exp(math.lgamma((m + 1) / 2) + math.lgamma((n - m + 1) / 2)
                            - math.lgamma((n + 1) / 2) - math.lgamma(0.5))
            assert slicer._crofton_beta(n, m) == pytest.approx(want, rel=1e-12), (n, m)


# On a reference of mass 1 the raw mean estimates beta_1(n, m) itself: evidence
# that the constant fits this sampler's distribution of planes and levels.
@pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (1, 4), (1, 9), (2, 2), (2, 3), (2, 4)])
def test_raw_mean_on_unit_cube_matches_crofton_beta(m, n):
    ref = segment((0,) * n, (1,) + (0,) * (n - 1), ambient=n) if m == 1 else _unit_square(n)
    raw, _ = slicer._raw_samples(ref, IDENT, 20_000, 5)
    sem = raw.std(ddof=1) / math.sqrt(raw.size)
    assert abs(raw.mean() - slicer._crofton_beta(n, m)) <= 5 * sem


def _tilted_grid():
    """2x2 grid of unit squares lifted to z = x/2 + y/3: each square has area 7/6."""
    cx = CellComplex()
    for i in range(3):
        for j in range(3):
            cx.add_cell(0, f"v{i}_{j}", 1)
    for i in range(2):
        for j in range(3):
            cx.add_cell(1, f"h{i}_{j}", 1)
            cx.add_face(1, f"h{i}_{j}", f"v{i}_{j}", -1)
            cx.add_face(1, f"h{i}_{j}", f"v{i + 1}_{j}", 1)
            cx.add_cell(1, f"u{j}_{i}", 1)
            cx.add_face(1, f"u{j}_{i}", f"v{j}_{i}", -1)
            cx.add_face(1, f"u{j}_{i}", f"v{j}_{i + 1}", 1)
    weights = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}
    for i, j in weights:
        q = f"q{i}_{j}"
        cx.add_cell(2, q, 1)
        cx.add_face(2, q, f"h{i}_{j}", 1)
        cx.add_face(2, q, f"u{i + 1}_{j}", 1)
        cx.add_face(2, q, f"h{i}_{j + 1}", -1)
        cx.add_face(2, q, f"u{i}_{j}", -1)
    coords = {f"v{i}_{j}": (i, j, F(i, 2) + F(j, 3)) for i in range(3) for j in range(3)}
    chain = Chain(2, {f"q{i}_{j}": w for (i, j), w in weights.items()})
    return embed_chain(cx, chain, coords)


TWO_CHAIN_CASES = {
    # name: (chain, cost, exact H-mass)
    "doubled-square-R3-sqrt": (DOUBLED_SQUARE_R3, SQRT, math.sqrt(2)),
    "triangles-R2-sqrt": (
        PolyhedralChain(2, 2, [(TRI[0], 3), (((0, 0), (0, 1), (-1, 0)), -2)]),
        SQRT, 0.5 * math.sqrt(3) + 0.5 * math.sqrt(2)),
    "tilted-grid-table": (_tilted_grid(), TABLE, F(7, 6) * (1 + F(3, 2) + F(7, 4) + 2)),
    # the apex is collinear with the first segment, so that join is a flat
    # triangle; the second join has area sqrt(6)/2 and weight 2
    "cone-collinear-apex-sqrt": (
        cone(PolyhedralChain(1, 3, [(((0, 0, 0), (1, 1, 1)), 1), (((1, 1, 1), (1, 2, 0)), 2)]),
             (2, 2, 2)),
        SQRT, math.sqrt(3)),
}


@pytest.mark.parametrize("name", sorted(TWO_CHAIN_CASES))
def test_mc_two_chains_within_five_sigma(name):
    chain, h, exact = TWO_CHAIN_CASES[name]
    assert poly_h_mass(chain, h) == pytest.approx(float(exact))
    seed = 20_000
    est = mc_h_mass(chain, h, 20_000, seed)
    assert abs(est.estimate - float(exact)) <= 5 * est.stderr, (est, exact)


def test_mc_two_chain_reproducible():
    a = mc_h_mass(DOUBLED_SQUARE_R3, SQRT, 2000, 42)
    assert mc_h_mass(DOUBLED_SQUARE_R3, SQRT, 2000, 42) == a
    assert mc_h_mass(DOUBLED_SQUARE_R3, SQRT, 2000, 43).estimate != a.estimate


def test_mc_two_chain_regression_anchor():
    # Recorded with the batched sampler. The 2-chain path goes through LAPACK
    # (QR, det, solve), whose last bits may differ between builds.
    est = mc_h_mass(DOUBLED_SQUARE_R3, SQRT, 2000, 42)
    assert est.estimate == pytest.approx(1.3839684405026478, rel=1e-9)


@pytest.mark.parametrize("chain", [POLYLINE_R3, TWO_CHAIN_CASES["tilted-grid-table"][0]],
                         ids=["m1", "m2"])
def test_mc_chunking_does_not_change_output(monkeypatch, chain):
    monkeypatch.setattr(slicer, "_CHUNK_PAIRS", 1 << 40)
    whole = mc_h_mass(chain, TABLE, 1500, 17)
    monkeypatch.setattr(slicer, "_CHUNK_PAIRS", 7)  # one or two samples per chunk
    assert mc_h_mass(chain, TABLE, 1500, 17) == whole


def test_mc_two_chain_sampler_does_not_call_slice_chain(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the sampler must use the batched crossing kernel")
    monkeypatch.setattr(slicer, "slice_chain", forbidden)
    assert mc_h_mass(DOUBLED_SQUARE_R3, SQRT, 200, 1).samples == 200


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before checking the chain's dimension")


def test_mc_rejects_point_chains(monkeypatch):
    monkeypatch.setattr(slicer, "_raw_samples", _no_sampling)
    with pytest.raises(DomainError):
        mc_h_mass(PolyhedralChain(0, 2, [(((0, 0),), 1)]), IDENT, 100, 0)


def test_mc_rejects_solid_chains_before_sampling(monkeypatch):
    monkeypatch.setattr(slicer, "_raw_samples", _no_sampling)
    tet = PolyhedralChain(3, 3, [(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)), 1)])
    with pytest.raises(DomainError):
        mc_h_mass(tet, IDENT, 2000, 0)
    assert mc_h_mass(PolyhedralChain(3, 3), IDENT, 100, 0).estimate == 0.0


def test_slice_skips_flat_simplices_off_their_line():
    z = segment((0, 0), (1, 0)) + segment((1, 0), (1, 1))
    fan = cone(z, (2, 0))  # the first join is flat, on the line y = 0
    zc = slice_chain(fan, [[1.0, 0.0], [0.0, 1.0]], [1.5, 0.25])
    assert [w for _, w in zc.points] == [-1]
    assert zc.points[0][0] == pytest.approx((1.5, 0.25))
    with pytest.raises(DegenerateSliceError, match="tangent"):
        slice_chain(fan, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.0])


def _reference_slice(p, pr, y):
    """The per-simplex slicing loop, one LAPACK det and solve per simplex.

    Returns the weighted points, or None when the slice is degenerate.
    """
    points = []
    for verts, w in p.simplices:
        vv = np.array([[float(c) for c in v] for v in verts])
        edges = (vv[1:] - vv[0]).T
        a = pr @ edges
        rhs = y - pr @ vv[0]
        det = float(np.linalg.det(a))
        scale = float(np.prod(np.linalg.norm(a, axis=0))) or 1.0
        if abs(det) <= 1e-12 * scale:
            aug = np.concatenate([a, rhs.reshape(-1, 1)], axis=1)
            if np.linalg.matrix_rank(aug, tol=1e-9) == np.linalg.matrix_rank(a, tol=1e-9):
                return None
            continue
        lam = np.linalg.solve(a, rhs)
        coords = list(lam) + [1.0 - float(lam.sum())]
        if all(c > 1e-12 for c in coords):
            points.append((vv[0] + edges @ lam, w * (1 if det > 0 else -1)))
        elif all(c > -1e-12 for c in coords):
            return None
    return points


def _two_chains_for_reference():
    rng = random.Random(57)
    chains = [_random_poly(rng, 2, 3, count=4) for _ in range(6)]
    chains.append(TWO_CHAIN_CASES["cone-collinear-apex-sqrt"][0])
    chains.append(TWO_CHAIN_CASES["tilted-grid-table"][0])
    return chains


def test_slice_chain_matches_per_simplex_reference():
    nrng = np.random.default_rng(58)
    checked = degenerate = 0
    for p in _two_chains_for_reference():
        verts = np.array([[[float(c) for c in v] for v in s] for s, _ in p.simplices])
        for _ in range(60):
            pr = np.linalg.qr(nrng.standard_normal((3, 2)))[0].T
            pv = verts @ pr.T
            if nrng.random() < 0.3:  # a projected vertex: on a facet or a flat simplex
                y = pv[nrng.integers(len(pv)), nrng.integers(3)]
            else:
                y = pv.min(axis=(0, 1)) + nrng.random(2) * np.ptp(pv, axis=(0, 1))
            want = _reference_slice(p, pr, y)
            checked += 1
            if want is None:
                degenerate += 1
                with pytest.raises(DegenerateSliceError):
                    slice_chain(p, pr, y)
                continue
            got = slice_chain(p, pr, y).points
            assert [w for _, w in got] == [w for _, w in want]
            for (pt, _), (ref, _) in zip(got, want):
                assert pt == pytest.approx(tuple(ref), abs=1e-12)
    assert 0 < degenerate < checked


def test_sampler_values_match_per_simplex_reference():
    nrng = np.random.default_rng(59)
    for p in _two_chains_for_reference():
        verts = _simplex_vertices(p)
        hw = np.array([float(TABLE(abs(w))) for _, w in p.simplices])
        frames = np.linalg.qr(nrng.standard_normal((200, 3, 2)))[0].swapaxes(1, 2)
        u = nrng.random((200, 2))
        for i in range(0, 200, 4):
            # a level on a facet of some simplex: a facet hit, or a tangent
            # hit when that simplex is flat
            bary = nrng.random(3) * (np.arange(3) != nrng.integers(3))
            point = bary / bary.sum() @ verts[nrng.integers(len(verts))]
            pv = verts @ frames[i].T
            lo, hi = pv.min(axis=(0, 1)), pv.max(axis=(0, 1))
            u[i] = (frames[i] @ point - lo) / (hi - lo)
        vals, degenerate = slicer._plane_values(frames, u, verts, hw)
        assert degenerate.any()
        for i in range(200):
            pv = verts @ frames[i].T
            lo, hi = pv.min(axis=(0, 1)), pv.max(axis=(0, 1))
            want = _reference_slice(p, frames[i], lo + u[i] * (hi - lo))
            assert degenerate[i] == (want is None)
            if want is not None:
                mass = sum(float(TABLE(abs(w))) for _, w in want)
                assert vals[i] == pytest.approx(np.prod(hi - lo) * mass, rel=1e-12)
