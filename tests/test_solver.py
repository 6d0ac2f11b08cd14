import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import pplateau.solver as solver
from pplateau.complexes import CellComplex, Chain, Cochain, boundary
from pplateau.errors import DomainError, SearchSpaceError
from pplateau.flatnorm import enumerate_flat_integral, flat_distance_integral, h_flat_distance
from pplateau.functionals import Integrand, energy
from pplateau.numeric import values_equal
from pplateau.search import _propagate
from pplateau.solver import (
    CertifyReport,
    Problem,
    Solution,
    certify,
    derive_bounds,
    exhaustive_oracle,
    solve,
)
from pplateau.sunflower import as_problem, build_sunflower

from tcommon import (
    chain_dicts,
    interval,
    is_subcurrent,
    random_chain,
    random_cochain,
    random_complex,
    square,
)

IDENT = Integrand.identity()
SQRT = Integrand.power(Fraction(1, 2))
QUART = Integrand.power(Fraction(1, 4))
ZERO0 = Chain(0, {})
ZERO1 = Chain(1, {})


def _problem(cx, dim=1, budget=None, reference=None, phi=None, h=IDENT):
    return Problem(
        cx=cx,
        dim=dim,
        budget_chain=budget if budget is not None else Chain(dim - 1, {}),
        reference=reference if reference is not None else Chain(dim, {}),
        phi=phi if phi is not None else Cochain(dim - 1, {}),
        h=h,
    )


def _fork():
    """Two unit edges sharing one vertex as their common head."""
    cx = CellComplex()
    cx.add_cell(0, "v", 1)
    cx.add_cell(1, "e1", 1)
    cx.add_cell(1, "e2", 1)
    cx.add_face(1, "e1", "v", 1)
    cx.add_face(1, "e2", "v", 1)
    return cx


# ---------------------------------------------------------------- bounds

def test_derive_bounds_zero_data_gives_zero_caps():
    cx = square()
    p = _problem(cx, dim=2)
    assert derive_bounds(p) == {"lower": 0, "upper": 0}


def test_derive_bounds_identity_reference():
    cx = interval(edge_measure=1)
    p = _problem(cx, reference=Chain(1, {"e": 2}))
    assert derive_bounds(p) == {"e": 2}


def test_derive_bounds_sqrt_reference():
    cx = interval(edge_measure=1)
    h = Integrand.power(Fraction(1, 2))
    p = _problem(cx, reference=Chain(1, {"e": 9}), h=h)
    # weighted budget sqrt(9) = 3 lets a single coefficient grow to 9
    assert derive_bounds(p) == {"e": 9}


def test_derive_bounds_includes_pairing_slack():
    cx = interval(edge_measure=1)
    p = _problem(cx,
                 budget=Chain(0, {"a": 2}),
                 phi=Cochain(0, {"a": Fraction(3)}))
    # mass(B) * comass(phi) = 2 * 3; reference contributes nothing
    assert derive_bounds(p) == {"e": 6}


@pytest.mark.parametrize("petal_areas, caps_by_measure", [
    (None, {1: 900}),  # the canonical sunflower: all nine 2-cells have area 1
    ([1, 2, 1, 2, 3, 1, 1, 1], {1: 900, 2: 225, 3: 100}),
])
def test_derive_bounds_inverts_once_per_distinct_measure(monkeypatch, petal_areas,
                                                          caps_by_measure):
    calls = []
    inverse = Integrand.upper_inverse

    def counted(self, budget):
        calls.append(budget)
        return inverse(self, budget)

    monkeypatch.setattr(Integrand, "upper_inverse", counted)
    p = as_problem(build_sunflower(8, (2, 2, 2, 2, 1, 1, 0, 0), -10,
                                   petal_areas=petal_areas), SQRT)
    caps = derive_bounds(p)
    assert len(calls) == len(caps_by_measure)
    # budget 30: sqrt(cap) * measure <= 30 for every cell
    assert caps == {c.name: caps_by_measure[c.measure] for c in p.cx.cells(2)}


def test_derive_bounds_rejects_zero_measure_top_cell():
    cx = CellComplex()
    cx.add_cell(0, "v", 1)
    cx.add_cell(1, "e", 0)
    cx.add_face(1, "e", "v", 1)
    p = _problem(cx, phi=Cochain(0, {"v": 1}), budget=Chain(0, {"v": 1}))
    with pytest.raises(SearchSpaceError):
        derive_bounds(p)
    # an explicit cap sidesteps the derivation
    s = solve(p, caps=1)
    assert s.value.energy == -1
    assert chain_dicts(s.minimizers) == [{"e": 1}]


# ---------------------------------------------------------------- caps forms

def test_scalar_cap_applies_to_every_cell():
    cx = square()
    p = _problem(cx, dim=2)
    s = solve(p, caps=3)
    assert s.caps == {"lower": 3, "upper": 3}


def test_cap_dict_must_cover_all_cells():
    cx = square()
    p = _problem(cx, dim=2)
    with pytest.raises(DomainError):
        solve(p, caps={"lower": 1})
    with pytest.raises(DomainError):
        solve(p, caps={"lower": 1, "upper": -1})
    with pytest.raises(DomainError):
        solve(p, caps={"lower": 1, "upper": Fraction(1)})
    with pytest.raises(DomainError):
        solve(p, caps=-2)


def test_none_caps_derive_bounds():
    cx = interval()
    p = _problem(cx, reference=Chain(1, {"e": 1}))
    s = solve(p)
    assert s.caps == derive_bounds(p)


# ---------------------------------------------------------------- validation

def test_problem_rejects_bad_dimensions():
    cx = square()
    with pytest.raises(DomainError):
        _problem(cx, dim=0)
    with pytest.raises(DomainError):
        Problem(cx, 2, Chain(0, {"p": 1}), Chain(2, {}), Cochain(1, {}), IDENT)
    with pytest.raises(DomainError):
        Problem(cx, 2, Chain(1, {}), Chain(1, {"pq": 1}), Cochain(1, {}), IDENT)
    with pytest.raises(DomainError):
        Problem(cx, 2, Chain(1, {}), Chain(2, {}), Cochain(0, {"p": 1}), IDENT)


def test_problem_rejects_zero_data_of_the_wrong_dimension():
    """A zero budget, reference or cochain still carries a dimension; one of
    the wrong dimension used to be accepted, and `solve` then failed in
    `energy` as soon as a minimizer had a nonzero boundary."""
    cx = square()
    b, t0 = Chain(0, {"p": -1, "q": 1}), Chain(1, {"pq": 1})
    assert solve(Problem(cx, 1, b, t0, Cochain(0, {}), IDENT), caps=1).value.energy == 1
    with pytest.raises(DomainError, match="cochain"):
        Problem(cx, 1, b, t0, Cochain(5, {}), IDENT)
    with pytest.raises(DomainError, match="budget"):
        Problem(cx, 1, Chain(2, {}), t0, Cochain(0, {}), IDENT)
    with pytest.raises(DomainError, match="reference"):
        Problem(cx, 1, b, Chain(0, {}), Cochain(0, {}), IDENT)


def test_problem_rejects_fractional_data():
    cx = interval()
    with pytest.raises(DomainError):
        _problem(cx, budget=Chain(0, {"a": Fraction(1, 2)}))
    with pytest.raises(DomainError):
        _problem(cx, reference=Chain(1, {"e": Fraction(1, 2)}))


def test_problem_rejects_unknown_cells():
    cx = interval()
    with pytest.raises(DomainError):
        _problem(cx, reference=Chain(1, {"ghost": 1}))


# ---------------------------------------------------------------- solving

def test_zero_cochain_zero_budget_unique_zero_minimizer():
    cx = square()
    for h in (IDENT, Integrand.power(Fraction(1, 2))):
        p = _problem(cx, dim=2, h=h)
        s = solve(p, caps=2)
        assert len(s.minimizers) == 1
        assert s.minimizers[0].is_zero
        assert s.value.energy == 0
        assert not s.truncated
        assert not s.bounds_active


def test_reference_is_always_feasible():
    rng = random.Random(51)
    for _ in range(40):
        cx = random_complex(rng)
        t0 = random_chain(rng, cx, 1, lo=-1, hi=1)
        b = random_chain(rng, cx, 0, lo=0, hi=2)
        p = _problem(cx, budget=b, reference=t0)
        s = solve(p, caps=2)
        ref_energy = energy(cx, t0, p.h, p.phi)
        assert float(s.value.energy) <= float(ref_energy.energy) + 1e-9


def test_fork_ties_and_truncation():
    cx = _fork()
    p = _problem(cx, budget=Chain(0, {"v": 1}), phi=Cochain(0, {"v": 1}))
    full = solve(p, caps=1)
    assert values_equal(full.value.energy, 0)
    assert chain_dicts(full.minimizers) == [{}, {"e2": 1}, {"e1": 1}]
    assert not full.truncated

    cut = solve(p, caps=1, max_minimizers=2)
    assert len(cut.minimizers) == 2
    assert cut.truncated
    assert values_equal(cut.value.energy, full.value.energy)

    unlimited = solve(p, caps=1, max_minimizers=None)
    assert len(unlimited.minimizers) == 3
    assert not unlimited.truncated


def test_profitable_edge_drives_nonzero_minimizer():
    cx = interval()
    p = _problem(cx,
                 budget=Chain(0, {"a": -1, "b": 1}),
                 phi=Cochain(0, {"a": -2, "b": 2}))
    s = solve(p, caps=1)
    # pairing pays 4 against edge cost 1
    assert chain_dicts(s.minimizers) == [{"e": 1}]
    assert s.value.energy == -3
    assert s.bounds_active
    assert s.nodes_visited > 0


def test_infeasible_caps_raise():
    cx = interval()
    p = _problem(cx, reference=Chain(1, {"e": 1}))
    # boundary of the reference pins bd(T) = b - a, unreachable with cap 0
    with pytest.raises(DomainError):
        solve(p, caps=0)


def test_solver_matches_oracle_on_randoms():
    rng = random.Random(52)
    kinds = [IDENT, Integrand.power(Fraction(1, 2)), Integrand.power(Fraction(1, 4))]
    for i in range(60):
        cx = random_complex(rng)
        t0 = random_chain(rng, cx, 1, lo=-1, hi=1)
        b = random_chain(rng, cx, 0, lo=-2, hi=2)
        phi = random_cochain(rng, cx, 0)
        p = _problem(cx, budget=b, reference=t0, h=kinds[i % 3])
        caps = rng.randint(1, 3)
        s = solve(p, caps=caps, max_minimizers=None)
        o = exhaustive_oracle(p, caps=caps, max_minimizers=None)
        assert values_equal(s.value.energy, o.value.energy), i
        assert chain_dicts(s.minimizers) == chain_dicts(o.minimizers), i
        rep = certify(p, s)
        assert rep.ok, rep.entries


def test_minimizers_sorted_and_admissible():
    rng = random.Random(53)
    for _ in range(20):
        cx = random_complex(rng)
        t0 = random_chain(rng, cx, 1, lo=-1, hi=1)
        b = random_chain(rng, cx, 0, lo=0, hi=2)
        p = _problem(cx, budget=b, reference=t0)
        s = solve(p, caps=2, max_minimizers=None)
        keys = [m.key(cx) for m in s.minimizers]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for m in s.minimizers:
            assert is_subcurrent(cx, boundary(cx, m - t0), b)


# ---------------------------------------------------------------- certify

def test_certify_flags_wrong_value():
    cx = _fork()
    p = _problem(cx, budget=Chain(0, {"v": 1}), phi=Cochain(0, {"v": 1}))
    s = solve(p, caps=1)
    bad_value = energy(cx, Chain(1, {"e1": 1, "e2": 0}), p.h,
                       Cochain(0, {"v": 5}))
    tampered = Solution(s.minimizers, bad_value, s.caps,
                        s.bounds_active, s.truncated)
    rep = certify(p, tampered)
    assert not rep.ok
    assert any("energy" in e for e in rep.entries)


def test_certify_flags_constraint_violation():
    cx = interval()
    p = _problem(cx)  # zero budget forces bd(T) = 0
    s = solve(p, caps=1)
    bad = Solution((Chain(1, {"e": 1}),), s.value, s.caps, True, False)
    rep = certify(p, bad)
    assert not rep.ok
    assert any("boundary constraint" in e for e in rep.entries)


def test_certify_sees_zero_measure_cells():
    # a --e--> b with b of measure 0: bd(e) = -a + b puts +1 on b, where the
    # budget -a is 0; the mass identity cannot see b, the cellwise rule can.
    cx = interval(vb=0)
    p = _problem(cx, budget=Chain(0, {"a": -1}))
    s = solve(p, caps=1)
    assert chain_dicts(s.minimizers) == [{}]
    edge = Chain(1, {"e": 1})
    bad = Solution((edge,), energy(cx, edge, p.h, p.phi), s.caps, True, False)
    rep = certify(p, bad)
    assert not rep.ok
    assert any("boundary constraint" in e for e in rep.entries)


def test_certify_flags_disorder_and_duplicates():
    cx = _fork()
    p = _problem(cx, budget=Chain(0, {"v": 1}), phi=Cochain(0, {"v": 1}))
    s = solve(p, caps=1)
    swapped = Solution(tuple(reversed(s.minimizers)), s.value, s.caps,
                       s.bounds_active, s.truncated)
    assert not certify(p, swapped).ok
    doubled = Solution(s.minimizers + s.minimizers[-1:], s.value, s.caps,
                       s.bounds_active, s.truncated)
    assert not certify(p, doubled).ok


def test_certify_accepts_clean_report():
    cx = interval()
    p = _problem(cx, phi=Cochain(0, {"a": 1, "b": 1}))
    s = solve(p, caps=2)
    rep = certify(p, s)
    assert isinstance(rep, CertifyReport)
    assert rep.ok and rep.entries == ()


def test_certify_flags_each_tampered_field_alone():
    cx = _fork()
    p = _problem(cx, budget=Chain(0, {"v": 1}), phi=Cochain(0, {"v": 1}))
    s = solve(p, caps=1)
    assert certify(p, s).ok
    tampered = [
        (replace(s, minimizers=()), "no minimizers reported"),
        (replace(s, minimizers=(Chain(1, {"e1": Fraction(1, 2)}),)),
         "minimizer 0 has non-integer coefficients"),
        (replace(s, caps={**s.caps, "e2": -1}), "negative cap on 'e2'"),
    ]
    for bad, issue in tampered:
        rep = certify(p, bad)
        assert not rep.ok
        assert rep.entries == (issue,)


# ---------------------------------------------------------------- caps and limits

@pytest.mark.parametrize("limit", [0, -1, True, 1.5])
@pytest.mark.parametrize("route", [solve, exhaustive_oracle])
def test_minimizer_limit_below_one_is_rejected(route, limit):
    p = _problem(_fork(), budget=Chain(0, {"v": 1}), phi=Cochain(0, {"v": 1}))
    with pytest.raises(DomainError, match="minimizer limit"):
        route(p, caps=1, max_minimizers=limit)
    one = route(p, caps=1, max_minimizers=1)
    assert len(one.minimizers) == 1 and one.truncated


CAP_ROUTES = {  # each returns the cap its result reports
    "solve": lambda cap: solve(_problem(interval()), caps=cap).caps["e"],
    "exhaustive_oracle": lambda cap: exhaustive_oracle(_problem(interval()), caps=cap).caps["e"],
    "h_flat_distance": lambda cap: h_flat_distance(interval(), ZERO0, ZERO0, SQRT, cap).cap,
    "flat_distance_integral": lambda cap: flat_distance_integral(interval(), ZERO0, ZERO0, cap).cap,
    "enumerate_flat_integral":
        lambda cap: enumerate_flat_integral(interval(), ZERO0, ZERO0, cap).cap,
}


@pytest.mark.parametrize("cap", [True, 1.5, -1, "2", {"e": True}, {"e": 1.5}, {"e": -1}])
@pytest.mark.parametrize("route", CAP_ROUTES)
def test_a_cap_that_is_not_an_integer_of_at_least_zero_is_rejected(route, cap):
    with pytest.raises(DomainError, match="cap.* must be an integer >= 0"):
        CAP_ROUTES[route](cap)
    assert CAP_ROUTES[route](1) == 1


def test_oracle_refuses_a_box_over_its_limit_before_building_chains(monkeypatch):
    def no_boundary(*args):
        raise AssertionError("built a candidate before checking the box size")
    monkeypatch.setattr(solver, "boundary", no_boundary)
    with pytest.raises(SearchSpaceError):
        exhaustive_oracle(_problem(interval()), caps=solver.ORACLE_LIMIT // 2)


# ---------------------------------------------------------------- propagation

CANON = (2, 2, 2, 2, 1, 1, 0, 0)  # the canonical 8-petal sunflower
HALF = Fraction(1, 2)
K16 = (1, 0, 2, HALF, 0, 2, 1, HALF, 0, 2, 1, 3 * HALF, 2, 0, 0, 3 * HALF)


def test_quarter_power_sunflower_searches_the_propagated_disk():
    # Under H(k) = k^(1/4) the derived disk cap is 810,000, but the petal rows
    # leave the disk only -2..1, and the search runs over that.
    s = build_sunflower(8, CANON, -10)
    p = as_problem(s, QUART)
    sol = solve(p)
    assert chain_dicts(sol.minimizers) == [{"disk": -2}]
    assert sol.value == energy(s.cx, Chain(2, {"disk": -2}), p.h, p.phi)
    assert sol.caps["disk"] == 810000  # the derived box is still the one reported
    assert not sol.bounds_active and not sol.truncated
    assert sol.nodes_visited == 13


@pytest.mark.parametrize("petals, disk, h, caps, nodes", [
    (CANON, -10, IDENT, 2, 13),
    (CANON, -10, SQRT, None, 13),
    (K16, 7, SQRT, None, 881),  # disk pairing 7 is this scenario's upper threshold
])
def test_sunflower_node_counts(petals, disk, h, caps, nodes):
    p = as_problem(build_sunflower(len(petals), petals, disk), h)
    sol = solve(p, caps=caps)
    assert certify(p, sol).ok
    assert sol.nodes_visited == nodes


def _random_rows(rng):
    """Rows lo <= sum(s * t) <= hi over three or four cells, caps 0-3."""
    cells = [f"c{i}" for i in range(rng.randint(3, 4))]
    caps = {c: rng.randint(0, 3) for c in cells}
    touch, box = {}, {}
    for r in range(rng.randint(1, 4)):
        members = rng.sample(cells, rng.randint(1, len(cells)))
        touch[f"r{r}"] = [(c, rng.choice((-3, -2, -1, 1, 2, 3))) for c in members]
        lo = rng.randint(-5, 5)
        box[f"r{r}"] = (lo, lo + rng.randint(0, 3))
    return cells, caps, touch, box


def test_propagated_domains_are_sound_and_bounds_consistent():
    """Against enumeration of the cap box: every admissible point lies in the
    domains, and the pass raises only when there is none. At the fixed point
    each domain end has support in each of its rows: with the other cells at
    their domain extremes, the row still reaches its box."""
    rng = random.Random(55)
    raised = shrunk = 0
    for _ in range(300):
        cells, caps, touch, box = _random_rows(rng)
        admissible = [
            t for t in itertools.product(*(range(-caps[c], caps[c] + 1) for c in cells))
            if all(box[e][0] <= sum(s * t[cells.index(c)] for c, s in row) <= box[e][1]
                   for e, row in touch.items())]
        try:
            dom = _propagate(touch, box, caps)
        except DomainError as exc:
            assert "infeasible" in str(exc)
            assert not admissible
            raised += 1
            continue
        for t in admissible:
            assert all(v in dom[c] for c, v in zip(cells, t))
        shrunk += any(len(dom[c]) < 2 * caps[c] + 1 for c in cells)
        for e, row in touch.items():
            lo, hi = box[e]
            for n, s in row:
                rest = [sorted((s2 * dom[c][0], s2 * dom[c][-1])) for c, s2 in row if c != n]
                least = sum(a for a, _ in rest)
                most = sum(b for _, b in rest)
                for v in (dom[n][0], dom[n][-1]):
                    assert s * v + least <= hi and s * v + most >= lo, (touch, box, caps, dom)
    assert raised >= 20 and shrunk >= 100


def test_cyclic_rows_propagate_to_infeasible():
    # t0 - t1 = 0 and t0 - t1 = 1: each revision moves a bound by one, so the
    # pass needs about a hundred sweeps to empty the cap box.
    touch = {"a": [("t0", 1), ("t1", -1)], "b": [("t0", 1), ("t1", -1)]}
    with pytest.raises(DomainError, match="infeasible"):
        _propagate(touch, {"a": (0, 0), "b": (1, 1)}, {"t0": 50, "t1": 50})


def test_reference_outside_the_caps_is_found_infeasible():
    # Rows 2 t0 - t1 and 3 t0 - 2 t1 are pinned at the reference (51, 51), the
    # only point that meets both; cap 50 excludes it and the bounds close in
    # over several revisions of each row.
    cx = CellComplex()
    cx.add_cell(0, "a", 1)
    cx.add_cell(0, "b", 1)
    for name, sa, sb in (("t0", 2, 3), ("t1", -1, -2)):
        cx.add_cell(1, name, 1)
        cx.add_face(1, name, "a", sa)
        cx.add_face(1, name, "b", sb)
    p = _problem(cx, reference=Chain(1, {"t0": 51, "t1": 51}))
    with pytest.raises(DomainError, match="infeasible"):
        solve(p, caps=50)
    with pytest.raises(DomainError, match="infeasible"):
        exhaustive_oracle(p, caps=50)
    s = solve(p, caps=51)
    assert chain_dicts(s.minimizers) == [{"t0": 51, "t1": 51}]
    assert s.bounds_active


def _solution_fields(s):
    return (s.value, chain_dicts(s.minimizers), s.caps, s.bounds_active, s.truncated)


def test_solver_matches_oracle_on_general_randoms():
    """1- and 2-dimensional problems with incidences +-1 and +-2, zero-measure
    cells, all three costs, uniform caps 0-2, cap maps with zeros and small
    derived caps: every field but the node count agrees with the oracle, and
    so does the type of any error."""
    rng = random.Random(56)
    kinds = [IDENT, SQRT, QUART]
    outcomes = {"solved": 0, "raised": 0, "truncated": 0, "active": 0, "derived": 0}
    for i in range(400):
        dim = 1 + i % 2
        cx = random_complex(rng, max_cells=10 if dim == 2 else 12,
                            zero_share=0.25 if i % 4 >= 2 else 0.0, signs=(-2, -1, 1, 2))
        t0 = random_chain(rng, cx, dim, lo=-1, hi=1)
        b = random_chain(rng, cx, dim - 1, lo=-2, hi=2)
        phi = random_cochain(rng, cx, dim - 1)
        p = _problem(cx, dim=dim, budget=b, reference=t0, phi=phi, h=kinds[i % 3])
        form = rng.randrange(3)
        if form == 0:
            caps = rng.randint(0, 2)
        else:
            caps = {name: rng.choice((0, 0, 1, 2)) for name in cx.cell_names(dim)}
            if form == 2:
                try:
                    if max(derive_bounds(p).values()) <= 3:
                        caps = None
                        outcomes["derived"] += 1
                except (DomainError, SearchSpaceError):
                    pass  # zero-measure cells admit no derived cap
        limit = rng.choice((None, 64, 1, 2))
        try:
            o = exhaustive_oracle(p, caps=caps, max_minimizers=limit)
        except (DomainError, SearchSpaceError) as exc:
            with pytest.raises(type(exc)):
                solve(p, caps=caps, max_minimizers=limit)
            outcomes["raised"] += 1
            continue
        s = solve(p, caps=caps, max_minimizers=limit)
        assert _solution_fields(s) == _solution_fields(o), i
        assert certify(p, s).ok
        outcomes["solved"] += 1
        outcomes["truncated"] += s.truncated
        outcomes["active"] += s.bounds_active
    assert min(outcomes.values()) >= 10, sorted(outcomes.items())


def _outcome(route, p, caps):
    try:
        s = route(p, caps=caps, max_minimizers=None)
    except DomainError as exc:
        return type(exc)
    return _solution_fields(s)


def test_oracle_works_without_the_search(monkeypatch):
    """With the search, the propagation and the boundary box unusable, the
    oracle still answers: it works from `boundary`, `energy` and the cellwise
    subcurrent rule. `solve` then agrees with it, infeasible cases included."""
    rng = random.Random(57)
    cases = []
    for i in range(24):
        cx = random_complex(rng, zero_share=0.3 if i % 2 else 0.0, signs=(-2, -1, 1, 2))
        p = _problem(cx, budget=random_chain(rng, cx, 0, lo=-2, hi=2),
                     reference=random_chain(rng, cx, 1, lo=-1, hi=1),
                     phi=random_cochain(rng, cx, 0), h=(IDENT, SQRT, QUART)[i % 3])
        cases.append((p, rng.randint(0, 2)))
    cx = interval()  # the reference needs coefficient 1, beyond cap 0
    cases.append((_problem(cx, reference=Chain(1, {"e": 1})), 0))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call into the search")

    with monkeypatch.context() as m:
        for name in ("search", "_propagate", "boundary_box"):
            m.setattr(solver, name, refuse)
        oracle = [_outcome(exhaustive_oracle, p, caps) for p, caps in cases]
        with pytest.raises(AssertionError):
            solve(*cases[0])
    assert oracle == [_outcome(solve, p, caps) for p, caps in cases]
    assert oracle == [_outcome(exhaustive_oracle, p, caps) for p, caps in cases]
    assert oracle.count(DomainError) >= 3
    zero_measure = [any(c.measure == 0 for d in (0, 1) for c in p.cx.cells(d))
                    for p, _ in cases]
    assert sum(z and o is not DomainError for z, o in zip(zero_measure, oracle)) >= 3
