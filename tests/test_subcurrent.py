import random
from fractions import Fraction

import pytest

from pplateau.complexes import CellComplex, Chain, boundary
from pplateau.errors import DomainError
from pplateau.functionals import Integrand, h_mass, mass
from pplateau.subcurrent import (
    boundary_box,
    check_limit_closure,
    is_subcurrent_cellwise,
)
from pplateau.sunflower import build_sunflower

from tcommon import (
    interval,
    is_subcurrent,
    random_chain,
    random_complex,
    subcurrent_masses_dominated,
)


def two_points():
    cx = CellComplex()
    cx.add_cell(0, "s1", 1)
    cx.add_cell(0, "s2", 1)
    return cx


def random_subcurrent(rng, b: Chain) -> Chain:
    coeffs = {}
    for name, v in b.items():
        t = rng.randint(0, abs(v))
        if t:
            coeffs[name] = t if v > 0 else -t
    return Chain(b.dim, coeffs)


def test_zero_is_always_a_subcurrent():
    cx = two_points()
    b = Chain(0, {"s1": 2, "s2": 1})
    assert is_subcurrent(cx, Chain(0, {}), b)
    assert is_subcurrent(cx, Chain(0, {}), Chain(0, {}))


def test_mass_identity_examples():
    cx = two_points()
    b = Chain(0, {"s1": 2, "s2": 1})
    assert is_subcurrent(cx, Chain(0, {"s1": 1, "s2": 1}), b)
    assert not is_subcurrent(cx, Chain(0, {"s1": -1}), b)


def test_subcurrent_of_zero_only_zero():
    cx = two_points()
    assert is_subcurrent(cx, Chain(0, {}), Chain(0, {}))
    assert not is_subcurrent(cx, Chain(0, {"s1": 1}), Chain(0, {}))


def test_dimension_mismatch():
    cx = two_points()
    with pytest.raises(DomainError):
        is_subcurrent(cx, Chain(1, {"e": 1}), Chain(0, {"s1": 1}))


def test_cellwise_agrees_with_mass_identity_on_positive_measures():
    rng = random.Random(21)
    for _ in range(200):
        cx = random_complex(rng)
        a = random_chain(rng, cx, 1, lo=-3, hi=3)
        b = random_chain(rng, cx, 1, lo=-3, hi=3)
        assert is_subcurrent(cx, a, b) == is_subcurrent_cellwise(cx, a, b)


def test_zero_measure_separates_the_two_characterizations():
    """A nonzero coefficient on a measure-zero cell is invisible to masses
    but not to the per-cell rule."""
    cx = CellComplex()
    cx.add_cell(0, "z", 0)
    cx.add_cell(0, "s", 1)
    a = Chain(0, {"z": 1})
    b = Chain(0, {"s": 2})
    assert is_subcurrent(cx, a, b)
    assert not is_subcurrent_cellwise(cx, a, b)


def test_mass_monotone_under_subcurrent():
    rng = random.Random(22)
    h = Integrand.power(Fraction(1, 2))
    for _ in range(200):
        cx = random_complex(rng)
        b = random_chain(rng, cx, 1, lo=-4, hi=4)
        a = random_subcurrent(rng, b)
        assert is_subcurrent(cx, a, b)
        assert mass(cx, a) <= mass(cx, b)
        assert float(h_mass(cx, a, h)) <= float(h_mass(cx, b, h)) + 1e-9
        assert subcurrent_masses_dominated(cx, a, b, h)


# ------------------------------------------------------------- boundary box

def in_box(box, chain):
    """Every coefficient inside its cell's interval; [0, 0] off the box's keys."""
    return (chain.support() <= box.keys()
            and all(lo <= chain.get(name) <= hi for name, (lo, hi) in box.items()))


def test_boundary_box_all_zero_without_budget():
    cx = two_points()
    cx.add_cell(1, "e", 1)
    cx.add_face(1, "e", "s1", -1)
    cx.add_face(1, "e", "s2", 1)
    assert boundary_box(cx, Chain(0, {}), Chain(1, {})) == {}


def test_boundary_box_negative_coefficient():
    cx = two_points()
    box = boundary_box(cx, Chain(0, {"s1": -2}), Chain(1, {}))
    assert box == {"s1": (-2, 0)}


def test_boundary_box_shifted_by_reference():
    cx = two_points()
    cx.add_cell(1, "e", 1)
    cx.add_face(1, "e", "s1", -1)
    cx.add_face(1, "e", "s2", 1)
    t0 = Chain(1, {"e": 1})  # boundary s2 - s1
    box = boundary_box(cx, Chain(0, {"s1": 2}), t0)
    assert list(box.items()) == [("s1", (-1, 1)), ("s2", (1, 1))]
    assert in_box(box, boundary(cx, t0))


def test_boundary_box_contains_zero_without_reference():
    rng = random.Random(23)
    for _ in range(50):
        cx = random_complex(rng)
        b = random_chain(rng, cx, 1)
        box = boundary_box(cx, b, Chain(2, {}))
        assert in_box(box, Chain(1, {}))


def test_boundary_box_matches_scenario_constraints():
    s = build_sunflower(8, [2, 2, 2, 2, 1, 1, 0, 0], -10)
    box = boundary_box(s.cx, s.budget_chain, Chain(2, {}))
    for e in s.inner_edges:
        assert box[e] == (0, 2)
    for e in s.arc_edges:
        assert box[e] == (0, 1)


def test_boundary_box_partial_variant_pins_dropped_arcs():
    s = build_sunflower(4, [1, 1, 0, 0], 0, dropped_arcs=(1,))
    box = boundary_box(s.cx, s.budget_chain, Chain(2, {}))
    # the dropped arc is off the supports: implicitly [0, 0]
    assert "arc2" not in box
    assert box["arc1"] == (0, 1)
    assert in_box(box, Chain(1, {"arc1": 1}))
    assert not in_box(box, Chain(1, {"arc2": 1}))


def test_boundary_box_requires_integer_chains():
    cx = two_points()
    with pytest.raises(DomainError):
        boundary_box(cx, Chain(0, {"s1": Fraction(1, 2)}), Chain(1, {}))


# ------------------------------------------------------------ limit closure

def test_limit_closure_constant_sequence():
    cx = two_points()
    b = Chain(0, {"s1": 2})
    a = Chain(0, {"s1": 1})
    assert check_limit_closure(cx, [a, a, a], b) == a


def test_limit_closure_eventually_constant():
    cx = two_points()
    b = Chain(0, {"s1": 3, "s2": -2})
    seq = [Chain(0, {}), Chain(0, {"s1": 1}), Chain(0, {"s1": 2, "s2": -1}),
           Chain(0, {"s1": 2, "s2": -1})]
    limit = check_limit_closure(cx, seq, b)
    assert is_subcurrent(cx, limit, b)


def test_limit_closure_rejects_alternation():
    cx = two_points()
    b = Chain(0, {"s1": 2})
    a1 = Chain(0, {"s1": 1})
    a2 = Chain(0, {"s1": 2})
    with pytest.raises(DomainError):
        check_limit_closure(cx, [a1, a2, a1, a2], b)


def test_limit_closure_rejects_non_subcurrent_entries():
    cx = two_points()
    b = Chain(0, {"s1": 2})
    bad = Chain(0, {"s1": -1})
    with pytest.raises(DomainError):
        check_limit_closure(cx, [bad, bad], b)


def test_limit_closure_sees_zero_measure_cells():
    # The mass identity is blind to a's extra 5 on the measure-0 vertex a:
    # 5*a + b is not a subcurrent of b cellwise, so the sequence is rejected.
    cx = interval(va=0)
    b = Chain(0, {"b": 1})
    bad = Chain(0, {"a": 5, "b": 1})
    assert is_subcurrent(cx, bad, b) and not is_subcurrent_cellwise(cx, bad, b)
    with pytest.raises(DomainError, match="entry 0"):
        check_limit_closure(cx, [bad], b)


def test_limit_closure_rejects_empty():
    cx = two_points()
    with pytest.raises(DomainError):
        check_limit_closure(cx, [], Chain(0, {}))


def test_limit_closure_randomized():
    rng = random.Random(24)
    for _ in range(100):
        cx = random_complex(rng)
        b = random_chain(rng, cx, 1, lo=-4, hi=4)
        tail = random_subcurrent(rng, b)
        seq = [random_subcurrent(rng, b) for _ in range(rng.randint(0, 4))]
        seq += [tail, tail]
        limit = check_limit_closure(cx, seq, b)
        assert limit == tail
        assert is_subcurrent(cx, limit, b)
