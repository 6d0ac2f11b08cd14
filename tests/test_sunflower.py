import random
from fractions import Fraction

import pytest

from pplateau.complexes import Chain, boundary, validate
from pplateau.errors import DomainError
from pplateau.functionals import Integrand, energy, mass
from pplateau.solver import certify, solve
from pplateau.subcurrent import boundary_box
from pplateau.sunflower import (
    RegimeThresholds,
    active_regimes,
    as_problem,
    build_sunflower,
    classify_petals,
    closed_form_solutions,
    thresholds,
)

from tcommon import chain_dicts

CANONICAL_PAIRINGS = (2, 2, 2, 2, 1, 1, 0, 0)

# disk pairing, number of tied minimizers, shared energy
CANONICAL_SWEEP = [
    (-10, 1, -18),
    (-5, 5, -8),
    (-3, 4, -6),
    (-1, 8, -4),
    (0, 4, -4),
    (3, 5, -4),
    (10, 1, -11),
]


def canonical(d, **kw):
    return build_sunflower(8, CANONICAL_PAIRINGS, d, **kw)


def test_complex_is_valid():
    s = canonical(0)
    report = validate(s.cx)
    assert report.ok, report.violations


def test_classification():
    c = classify_petals(canonical(0))
    assert c.negative == (0, 1, 2, 3)
    assert c.neutral == (4, 5)
    assert c.positive == (6, 7)


def test_canonical_thresholds():
    t = thresholds(canonical(0))
    assert t == RegimeThresholds(Fraction(-5), Fraction(-1), Fraction(3))


def test_budget_mass_counts_inner_circle_twice():
    s = canonical(0)
    total = 2 * sum(s.cx.measure(1, e) for e in s.inner_edges) \
        + sum(s.cx.measure(1, e) for e in s.arc_edges)
    assert mass(s.cx, s.budget_chain) == total


def test_budget_box_is_the_published_one():
    s = canonical(0)
    box = boundary_box(s.cx, s.budget_chain, Chain(2, {}))
    for e in s.inner_edges:
        assert box[e] == (0, 2)
    for e in s.arc_edges:
        assert box[e] == (0, 1)


def test_canonical_sweep_closed_form():
    for d, count, e in CANONICAL_SWEEP:
        sol = closed_form_solutions(canonical(d))
        assert len(sol.minimizers) == count, d
        assert sol.value.energy == e, d


def test_canonical_sweep_matches_solver():
    for d, count, e in CANONICAL_SWEEP:
        s = canonical(d)
        p = as_problem(s)
        got = solve(p, caps=2, max_minimizers=None)
        want = closed_form_solutions(s)
        assert got.value.energy == e, d
        assert chain_dicts(got.minimizers) == chain_dicts(want.minimizers), d
        assert certify(p, got).ok


def test_regime_unions_at_thresholds():
    assert active_regimes(canonical(-5)) == [-2, -1]
    assert active_regimes(canonical(-1)) == [-1, 0]
    assert active_regimes(canonical(3)) == [0, 1]
    assert active_regimes(canonical(-6)) == [-2]
    assert active_regimes(canonical(2)) == [0]
    assert active_regimes(canonical(4)) == [1]


def test_neutral_degeneracy_names_the_subsets():
    sol = closed_form_solutions(canonical(0))
    base = {f"petal{i}": 1 for i in (1, 2, 3, 4)}
    expected = []
    for extra in ((), (5,), (6,), (5, 6)):
        coeffs = dict(base)
        for i in extra:
            coeffs[f"petal{i}"] = 1
        expected.append(coeffs)
    got = chain_dicts(sol.minimizers)
    assert sorted(got, key=sorted) == sorted(expected, key=sorted)


def test_closed_form_truncation_flag():
    sol = closed_form_solutions(canonical(-1), max_minimizers=3)
    assert len(sol.minimizers) == 3
    assert sol.truncated


@pytest.mark.parametrize("limit", [0, -2, True])
def test_closed_form_rejects_a_limit_below_one(limit):
    with pytest.raises(DomainError, match="minimizer limit"):
        closed_form_solutions(canonical(-1), max_minimizers=limit)


def test_partial_variant_shifts_lower_threshold():
    s = canonical(0, dropped_arcs=[2])
    t = thresholds(s)
    assert (t.lower, t.middle, t.upper) == (-4, -1, 3)


def test_partial_variant_pins_dropped_petal():
    for d in (-10, -4, -1, 0, 3, 10):
        s = canonical(d, dropped_arcs=[2])
        sol = closed_form_solutions(s)
        p = as_problem(s)
        got = solve(p, caps=2, max_minimizers=None)
        assert chain_dicts(got.minimizers) == chain_dicts(sol.minimizers), d
        for m in got.minimizers:
            assert m.get("petal3") == 0, d
            assert m.get(s.disk) != 1, d


def test_partial_top_family_at_large_pairing():
    s = canonical(10, dropped_arcs=[2])
    sol = closed_form_solutions(s)
    base = {"petal1": 1, "petal2": 1, "petal4": 1}
    expected = []
    for extra in ((), ("petal5",), ("petal6",), ("petal5", "petal6")):
        coeffs = dict(base)
        for name in extra:
            coeffs[name] = 1
        expected.append(coeffs)
    assert sorted(chain_dicts(sol.minimizers), key=sorted) \
        == sorted(expected, key=sorted)
    assert sol.value.energy == -3


def test_single_petal_daisy():
    for d in (-4, -1, 0, 2, 5):
        s = build_sunflower(1, [0], d)
        t = thresholds(s)
        assert t.lower == t.middle == -1  # no negative petals
        assert t.upper == 2
        sol = closed_form_solutions(s)
        got = solve(as_problem(s), caps=2, max_minimizers=None)
        assert chain_dicts(got.minimizers) == chain_dicts(sol.minimizers), d
        assert got.value.energy == sol.value.energy, d


def test_all_neutral_collapses_thresholds():
    s = build_sunflower(3, [1, 1, 1], 0)
    t = thresholds(s)
    assert t.lower == t.middle == -1
    assert t.upper == 1
    c = classify_petals(s)
    assert c.neutral == (0, 1, 2)
    sol = closed_form_solutions(s)
    assert len(sol.minimizers) == 8  # any petal subset, disk at 0


def test_no_positive_petals_pins_upper_to_disk_area():
    s = build_sunflower(2, [3, 3], 0, disk_area=Fraction(5, 2))
    t = thresholds(s)
    assert t.upper == Fraction(5, 2)
    assert t.middle == Fraction(-5, 2)
    assert t.lower == Fraction(-5, 2) + (1 - 3) * 2


def test_rational_data_thresholds():
    s = build_sunflower(2, [Fraction(1, 3), Fraction(7, 2)], Fraction(1, 6),
                        petal_areas=[Fraction(1, 2), Fraction(3, 2)],
                        disk_area=Fraction(2, 3))
    t = thresholds(s)
    # petal 2 is negative (3/2 < 7/2), petal 1 positive (1/2 > 1/3)
    assert t.lower == Fraction(-2, 3) + (Fraction(3, 2) - Fraction(7, 2))
    assert t.middle == Fraction(-2, 3)
    assert t.upper == Fraction(2, 3) + (Fraction(1, 2) - Fraction(1, 3))


def test_random_scenarios_match_solver():
    rng = random.Random(54)
    for trial in range(40):
        k = rng.randint(1, 5)
        pairings = [Fraction(rng.randint(-2, 3), rng.choice([1, 1, 2]))
                    for _ in range(k)]
        if rng.random() < 0.5:
            pairings[rng.randrange(k)] = Fraction(1)  # force a neutral petal
        dropped = [i for i in range(k) if rng.random() < 0.25]
        s0 = build_sunflower(k, pairings, 0, dropped_arcs=dropped)
        t = thresholds(s0)
        pool = [t.lower, t.middle, t.upper, t.lower - 1, t.upper + 1,
                Fraction(rng.randint(-6, 6), rng.choice([1, 2]))]
        d = rng.choice(pool)
        s = build_sunflower(k, pairings, d, dropped_arcs=dropped)
        sol = closed_form_solutions(s)
        got = solve(as_problem(s), caps=2, max_minimizers=None)
        assert got.value.energy == sol.value.energy, (trial, d)
        assert chain_dicts(got.minimizers) == chain_dicts(sol.minimizers), \
            (trial, d)


def test_scenario_boundary_identity():
    """The disk's boundary cancels against the petals' inner contributions."""
    s = canonical(0)
    ring = boundary(s.cx, Chain(2, {s.disk: 1}))
    for e in s.inner_edges:
        assert ring.get(e) == -1
    full = Chain(2, {s.disk: 1, **{c: 1 for c in s.petal_cells}})
    outer = boundary(s.cx, full)
    for e in s.inner_edges:
        assert outer.get(e) == 0
    for e in s.arc_edges:
        assert outer.get(e) == 1


def test_builder_rejections():
    with pytest.raises(DomainError):
        build_sunflower(0, [], 0)
    with pytest.raises(DomainError):
        build_sunflower(2, [1], 0)
    with pytest.raises(DomainError):
        build_sunflower(2, [1, 1], 0, petal_areas=[1])
    with pytest.raises(DomainError):
        build_sunflower(2, [1, 1], 0, inner_lengths=[1, 1, 1])
    with pytest.raises(DomainError):
        build_sunflower(2, [1, 1], 0, dropped_arcs=[2])


def test_phi_spreads_disk_pairing():
    s = canonical(8)
    for e in s.inner_edges:
        assert s.phi.get(e) == -1  # -d/k = -8/8
    for i, e in enumerate(s.arc_edges):
        assert s.phi.get(e) == CANONICAL_PAIRINGS[i] + 1
    # the disk's boundary pairing recovers d with the opposite sign
    ring = boundary(s.cx, Chain(2, {s.disk: 1}))
    total = sum(s.phi.get(e) * ring.get(e) for e in s.inner_edges)
    assert total == 8


def test_nonidentity_cost_still_solves():
    s = canonical(-3)
    h = Integrand.power(Fraction(1, 2))
    p = as_problem(s, h)
    got = solve(p, caps=2, max_minimizers=None)
    assert certify(p, got).ok
    ident = solve(as_problem(s), caps=2, max_minimizers=None)
    # sqrt cost keeps every minimizer's coefficient profile admissible
    for m in got.minimizers:
        assert all(abs(v) <= 2 for v in m.coeffs.values())
    assert float(got.value.energy) <= float(ident.value.energy) + 1e-9
