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
    assert est.estimate == 1.418020373833472


def test_mc_identity_recovers_mass():
    est = mc_h_mass(SEG2, IDENT, 20000, 7)
    assert est.estimate == pytest.approx(2.0, rel=0.05)
    assert est.stderr > 0


def test_mc_concave_cost_on_doubled_segment():
    est = mc_h_mass(SEG2, SQRT, 20000, 7)
    assert est.estimate == pytest.approx(math.sqrt(2), rel=0.05)


def test_mc_calibration_constant():
    est = mc_h_mass(SEG2, IDENT, 20000, 11)
    assert est.calibration == pytest.approx(2 / math.pi, rel=0.05)


def test_mc_surface_area():
    sq = PolyhedralChain(2, 3, [
        (((0, 0, 0), (1, 0, 0), (1, 1, 0)), 1),
        (((0, 0, 0), (1, 1, 0), (0, 1, 0)), 1),
    ])
    est = mc_h_mass(sq, IDENT, 300, 3)
    assert est.estimate == pytest.approx(1.0, rel=0.2)


# ------------------------------------------------- sampling: 1-chains pinned

# Whole estimates recorded before the 2-chain sampler was batched; the 1-chain
# path must reproduce them bit for bit.
@pytest.mark.parametrize("chain, h, samples, seed, expected", [
    (SEG2, SQRT, 4000, 42, McEstimate(1.4080259783959497, 0.010839717277765074,
                                      0.634588370441533, 4000, 0)),
    (SEG2, SQRT, 20000, 7, McEstimate(1.416069054074056, 0.004816830788518392,
                                      0.6384385172075362, 20000, 0)),
    (POLYLINE_R3, TABLE, 20000, 5, McEstimate(63.184871424482026, 0.21292401361886848,
                                              0.49953792597154717, 20000, 0)),
])
def test_mc_one_chains_bit_identical(chain, h, samples, seed, expected):
    assert mc_h_mass(chain, h, samples, seed) == expected


# ------------------------------------------------- sampling: 2-chains

def _unit_square(n):
    a, b, c, d = ((x, y) + (0,) * (n - 2) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))
    return PolyhedralChain(2, n, [((a, b, c), 1), ((a, c, d), 1)])


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
    # The reported error covers the chain's own samples only; add the
    # calibration's relative error, measured on the unit square with another seed.
    ref = mc_h_mass(_unit_square(chain.ambient), IDENT, 20_000, seed + 1_000_003)
    sigma = math.hypot(est.stderr, est.estimate * ref.stderr / ref.estimate)
    assert abs(est.estimate - float(exact)) <= 5 * sigma, (est, exact, sigma)


def test_mc_two_chain_reproducible():
    a = mc_h_mass(DOUBLED_SQUARE_R3, SQRT, 2000, 42)
    assert mc_h_mass(DOUBLED_SQUARE_R3, SQRT, 2000, 42) == a
    assert mc_h_mass(DOUBLED_SQUARE_R3, SQRT, 2000, 43).estimate != a.estimate


def test_mc_two_chain_regression_anchor():
    # Recorded with the batched sampler. The 2-chain path goes through LAPACK
    # (QR, det, solve), whose last bits may differ between builds.
    est = mc_h_mass(DOUBLED_SQUARE_R3, SQRT, 2000, 42)
    assert est.estimate == pytest.approx(1.3435560439098309, rel=1e-9)


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
        verts = slicer._vertex_array(p)
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
