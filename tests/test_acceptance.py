"""End-to-end checks, one test per advertised guarantee.

Each test prints a single CRITERION line (PASS with a short summary, FAIL
with the triggering error) outside pytest's capture, so the line survives
into piped logs. Stated time budgets are asserted with a monotonic clock.
"""

import math
import random
import time
from fractions import Fraction

from pplateau.complexes import Chain, Cochain, boundary
from pplateau.flatnorm import (
    enumerate_flat_integral,
    flat_distance_integral,
    flat_norm_real,
    h_flat_distance,
    verify_real_certificate,
)
from pplateau.functionals import Integrand, h_mass, mass, validate_integrand
from pplateau.numeric import values_equal
from pplateau.slicer import (
    PolyhedralChain,
    cone,
    cone_mass_bound,
    mc_h_mass,
    poly_boundary,
    poly_mass,
)
from pplateau.solver import Problem, certify, exhaustive_oracle, solve
from pplateau.subcurrent import check_limit_closure
from pplateau.sunflower import (
    as_problem,
    build_sunflower,
    closed_form_solutions,
    thresholds,
)

from tcommon import (
    certificates_agree,
    chain_dicts,
    is_subcurrent,
    random_chain,
    random_cochain,
    random_complex,
    subcurrent_masses_dominated,
)

IDENT = Integrand.identity()
SQRT = Integrand.power(Fraction(1, 2))
QUART = Integrand.power(Fraction(1, 4))

CANONICAL_PAIRINGS = (2, 2, 2, 2, 1, 1, 0, 0)
UNIT_LENGTHS = {"inner_lengths": [1] * 8, "arc_lengths": [1] * 8}
CANONICAL_SWEEP = [
    (-10, 1, -18),
    (-5, 5, -8),
    (-3, 4, -6),
    (-1, 8, -4),
    (0, 4, -4),
    (3, 5, -4),
    (10, 1, -11),
]


class report:
    """Prints CRITERION <n> PASS/FAIL around the wrapped checks."""

    def __init__(self, capsys, n):
        self.capsys = capsys
        self.n = n
        self.detail = "all checks held"

    def note(self, detail):
        self.detail = detail

    def __enter__(self):
        return self

    def __exit__(self, etype, exc, tb):
        with self.capsys.disabled():
            if etype is None:
                print(f"CRITERION {self.n} PASS: {self.detail}")
            else:
                first = str(exc).splitlines()[0] if str(exc) else etype.__name__
                print(f"CRITERION {self.n} FAIL: {first}")
        return False


def test_criterion_1_canonical_sunflower_sweep(capsys):
    with report(capsys, 1) as r:
        start = time.monotonic()
        t = thresholds(build_sunflower(8, CANONICAL_PAIRINGS, 0, **UNIT_LENGTHS))
        assert (t.lower, t.middle, t.upper) \
            == (Fraction(-5), Fraction(-1), Fraction(3))
        for d, count, e in CANONICAL_SWEEP:
            s = build_sunflower(8, CANONICAL_PAIRINGS, d, **UNIT_LENGTHS)
            closed = closed_form_solutions(s)
            p = as_problem(s)
            got = solve(p, caps=2, max_minimizers=None)
            assert got.value.energy == Fraction(e), d
            assert len(got.minimizers) == count, d
            assert chain_dicts(got.minimizers) == chain_dicts(closed.minimizers), d
            assert certify(p, got).ok, d
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        r.note("thresholds -5/-1/3 exact; solver equals closed form at "
               f"7 pairings incl. 4-fold ties and threshold unions in {elapsed:.2f}s")


def test_criterion_2_partial_variant(capsys):
    with report(capsys, 2) as r:
        start = time.monotonic()
        tested = (-10, -5, -4, -1, 0, 3, 10)
        t = thresholds(build_sunflower(8, CANONICAL_PAIRINGS, 0, dropped_arcs=[2], **UNIT_LENGTHS))
        assert (t.lower, t.middle, t.upper) \
            == (Fraction(-4), Fraction(-1), Fraction(3))
        # one dropped arc from each petal class, plus the canonical choice
        for drop in (0, 2, 4, 6):
            for d in tested:
                s = build_sunflower(8, CANONICAL_PAIRINGS, d,
                                    dropped_arcs=[drop], **UNIT_LENGTHS)
                th = thresholds(s)
                full_chain = Chain(2, {s.disk: 1,
                                       **{c: 1 for c in s.petal_cells}})
                assert not is_subcurrent(
                    s.cx, boundary(s.cx, full_chain), s.budget_chain), (drop, d)
                closed = closed_form_solutions(s)
                got = solve(as_problem(s), caps=2, max_minimizers=None)
                assert chain_dicts(got.minimizers) \
                    == chain_dicts(closed.minimizers), (drop, d)
                pinned = s.petal_cells[drop]
                for m in got.minimizers:
                    assert m.get(s.disk) != 1, (drop, d)
                    assert m.get(pinned) == 0, (drop, d)
                if d >= th.middle:
                    assert any(m.get(s.disk) == 0 for m in got.minimizers), \
                        (drop, d)
                if d > th.middle:
                    assert all(m.get(s.disk) == 0 for m in got.minimizers), \
                        (drop, d)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        r.note("disk-plus-petals stays infeasible for 4 dropped-arc choices "
               f"at 7 pairings each; the petal family is optimal from each "
               f"middle threshold upward in {elapsed:.2f}s")


def test_criterion_3_solver_equals_oracle(capsys):
    with report(capsys, 3) as r:
        start = time.monotonic()
        rng = random.Random(2026)
        kinds = [IDENT, SQRT, QUART]
        for i in range(100):
            cx = random_complex(rng, max_cells=12)
            t0 = random_chain(rng, cx, 1, lo=-1, hi=1)
            b = random_chain(rng, cx, 0, lo=-2, hi=2)
            phi = random_cochain(rng, cx, 0)
            p = Problem(cx, 1, b, t0, phi, kinds[i % 3])
            caps = rng.randint(1, 3)
            got = solve(p, caps=caps, max_minimizers=None)
            want = exhaustive_oracle(p, caps=caps, max_minimizers=None)
            assert values_equal(got.value.energy, want.value.energy), i
            assert chain_dicts(got.minimizers) == chain_dicts(want.minimizers), i
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        r.note("100 random instances across 3 cost kinds match the exhaustive "
               f"oracle in value and minimizer set in {elapsed:.2f}s")


def test_criterion_4_zero_cochain_zero_minimizer(capsys):
    with report(capsys, 4) as r:
        rng = random.Random(2027)
        cases = 0
        for i in range(25):
            cx = random_complex(rng)
            p = Problem(cx, 1, Chain(0, {}), Chain(1, {}), Cochain(0, {}),
                        [IDENT, SQRT, QUART][i % 3])
            s = solve(p, caps=2, max_minimizers=None)
            assert len(s.minimizers) == 1
            assert s.minimizers[0].is_zero
            assert values_equal(s.value.energy, 0)
            cases += 1
        sf = build_sunflower(8, CANONICAL_PAIRINGS, 0, **UNIT_LENGTHS)
        p = Problem(sf.cx, 2, Chain(1, {}), Chain(2, {}), Cochain(1, {}), IDENT)
        s = solve(p, caps=2, max_minimizers=None)
        assert chain_dicts(s.minimizers) == [{}]
        assert s.value.energy == 0
        r.note(f"zero cochain forces the unique zero minimizer with energy 0 "
               f"on {cases + 1} complexes")


def test_criterion_5_flat_norms_agree(capsys):
    with report(capsys, 5) as r:
        rng = random.Random(2028)
        h2 = float(SQRT(2))
        for i in range(50):
            cx = random_complex(rng)
            t1 = random_chain(rng, cx, 1, lo=-1, hi=1)
            t2 = random_chain(rng, cx, 1, lo=-1, hi=1)
            cap = rng.randint(1, 2)
            ci = flat_distance_integral(cx, t1, t2, cap=cap)
            ce = enumerate_flat_integral(cx, t1, t2, cap=cap)
            assert certificates_agree(ci, ce), i
            cr = flat_norm_real(cx, t1 - t2)
            assert verify_real_certificate(cx, t1 - t2, cr), i
            assert float(cr.value) <= float(ci.value) + 1e-9, i
            single = flat_distance_integral(cx, t1, Chain(1, {}), cap=2)
            fh = h_flat_distance(cx, t1, Chain(1, {}), SQRT, cap=2)
            assert float(fh.value) <= h2 * float(single.value) + 1e-9, i
            assert float(fh.value) <= float(h_mass(cx, t1, SQRT)) + 1e-9, i
        r.note("integral distance equals enumeration on 50 instances; real "
               "certificates verify; concave variant obeys both bounds")


def _random_table(rng):
    pts = [(0, Fraction(0)), (1, Fraction(1))]
    slope = Fraction(1)
    theta, val = 1, Fraction(1)
    for _ in range(rng.randint(1, 4)):
        slope *= Fraction(rng.randint(1, 3), 4)
        step = rng.randint(1, 5)
        theta += step
        val += slope * step
        pts.append((theta, val))
    return Integrand.table(pts)


def test_criterion_6_integrand_axioms(capsys):
    with report(capsys, 6) as r:
        rng = random.Random(2029)
        costs = [IDENT, QUART, SQRT, Integrand.power(1)]
        costs += [_random_table(rng) for _ in range(20)]
        for h in costs:
            rep = validate_integrand(h)
            assert rep.ok, (h.kind, rep.failed())
        flat = validate_integrand(Integrand.power(0))
        assert set(flat.failed()) == {"strictly-increasing", "unbounded"}
        for h in costs:
            h2 = h(2)
            for theta in range(65):
                assert float(h(theta)) <= float(h2) * theta + 1e-9, \
                    (h.kind, theta)
        # weighted mass of several unit points dominates the cost of their
        # total multiplicity
        for h in costs:
            for k in range(1, 21):
                assert float(h(k)) <= k * float(h(1)) + 1e-9, (h.kind, k)
        r.note("5 axioms hold for identity, three power costs and 20 random "
               "tables; the flat power cost fails exactly the expected two; "
               "linear bound holds through 64")


def test_criterion_7_subcurrent_monotonicity(capsys):
    with report(capsys, 7) as r:
        rng = random.Random(2030)
        costs = [IDENT, SQRT, _random_table(rng)]
        pairs = 0
        for _ in range(50):
            cx = random_complex(rng)
            for _ in range(20):
                t = random_chain(rng, cx, 1, lo=-3, hi=3)
                sub = Chain(1, {
                    name: (1 if c > 0 else -1) * rng.randint(0, abs(c))
                    for name, c in t.items()})
                assert is_subcurrent(cx, sub, t)
                for h in costs:
                    assert subcurrent_masses_dominated(cx, sub, t, h)
                assert mass(cx, sub) <= mass(cx, t)
                limit = check_limit_closure(cx, [t, sub, sub], t)
                assert limit == sub
                assert is_subcurrent(cx, limit, t)
                pairs += 1
        assert pairs == 1000
        r.note("1000 random subcurrent pairs keep mass and weighted mass "
               "dominated; eventually constant sequences stay subcurrents")


def _random_rational_poly(rng, ambient):
    simplices = []
    for _ in range(rng.randint(1, 4)):
        verts = tuple(
            tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                  for _ in range(ambient))
            for _ in range(2))
        simplices.append((verts, rng.choice([-2, -1, 1, 2])))
    return PolyhedralChain(1, ambient, simplices)


def test_criterion_8_cone_identity(capsys):
    with report(capsys, 8) as r:
        rng = random.Random(2031)
        for i in range(100):
            ambient = 2 + (i % 2)
            z = _random_rational_poly(rng, ambient)
            apex = tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
                         for _ in range(ambient))
            c = cone(z, apex)
            assert poly_boundary(c) + cone(poly_boundary(z), apex) == z, i
            assert poly_mass(c) <= cone_mass_bound(z, apex) + 1e-9, i
        r.note("cone boundary identity holds exactly on 100 random rational "
               "chains; cone mass stays within the distance bound")


def test_criterion_9_monte_carlo_slicing(capsys):
    with report(capsys, 9) as r:
        start = time.monotonic()
        segment = PolyhedralChain(1, 2, [(((0, 0), (1, 0)), 2)])
        target = math.sqrt(2)
        hits = 0
        worst = 0.0
        for seed in range(1, 21):
            est = mc_h_mass(segment, SQRT, 100_000, seed)
            rel = abs(est.estimate - target) / target
            worst = max(worst, rel)
            if rel <= 0.05:
                hits += 1
        assert hits >= 19, f"only {hits}/20 seeds within 5%"
        ident = mc_h_mass(segment, IDENT, 100_000, 7)
        assert abs(ident.estimate - 2.0) / 2.0 <= 0.05
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        r.note(f"{hits}/20 seeds within 5% of sqrt(2) (worst {worst:.3%}); "
               f"identity recovers mass 2; {elapsed:.2f}s total")
