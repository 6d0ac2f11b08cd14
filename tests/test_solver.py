import random
from fractions import Fraction

import pytest

from pplateau.complexes import CellComplex, Chain, Cochain, boundary
from pplateau.errors import DomainError, SearchSpaceError
from pplateau.functionals import Integrand, energy
from pplateau.numeric import values_equal
from pplateau.solver import (
    CertifyReport,
    Problem,
    Solution,
    certify,
    derive_bounds,
    exhaustive_oracle,
    solve,
)
from pplateau.subcurrent import is_subcurrent

from tcommon import (
    chain_dicts,
    interval,
    random_chain,
    random_cochain,
    random_complex,
    square,
)

IDENT = Integrand.identity()
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
