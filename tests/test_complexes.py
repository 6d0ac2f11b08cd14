import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplateau.complexes import (
    CellComplex,
    Chain,
    Cochain,
    boundary,
    pair,
    unit_chain,
    validate,
)
from pplateau.errors import DomainError

from tcommon import interval, random_chain, random_cochain, random_complex, square


def test_chain_zero_coefficients_dropped():
    c = Chain(1, {"e": 0, "f": 2})
    assert c.support() == {"f"}
    assert c.get("e") == 0


def test_chain_whole_fractions_normalize_to_int():
    c = Chain(1, {"e": Fraction(4, 2)})
    assert c.get("e") == 2
    assert isinstance(c.get("e"), int)
    assert c.is_integer


def test_chain_algebra():
    a = Chain(1, {"e": 1, "f": -2})
    b = Chain(1, {"f": 2, "g": 3})
    assert dict((a + b).items()) == {"e": 1, "g": 3}
    assert dict((a - b).items()) == {"e": 1, "f": -4, "g": -3}
    assert dict((-a).items()) == {"e": -1, "f": 2}
    assert dict(a.scale(3).items()) == {"e": 3, "f": -6}
    assert a.scale(0).is_zero


def test_chain_dimension_mismatch():
    with pytest.raises(DomainError):
        Chain(1, {"e": 1}) + Chain(2, {"f": 1})


def test_chain_eq_and_hash():
    a = Chain(1, {"e": 1})
    b = Chain(1, {"e": Fraction(2, 2)})
    assert a == b
    assert hash(a) == hash(b)
    assert a != Chain(1, {"e": 2})


def test_zero_chain_any_dim_is_zero():
    assert Chain(1, {}).is_zero
    assert Chain(-1, {}).is_zero
    with pytest.raises(DomainError):
        Chain(-1, {"x": 1})


def test_add_cell_rejects_duplicates_and_negative_measure():
    cx = CellComplex()
    cx.add_cell(0, "a", 1)
    with pytest.raises(DomainError):
        cx.add_cell(0, "a", 1)
    with pytest.raises(DomainError):
        cx.add_cell(0, "neg", -1)


def test_add_face_unknown_cells():
    cx = CellComplex()
    cx.add_cell(1, "e", 1)
    with pytest.raises(DomainError):
        cx.add_face(1, "e", "missing", 1)
    with pytest.raises(DomainError):
        cx.add_face(1, "missing", "e", 1)


def test_add_face_accumulates_and_cancels():
    cx = CellComplex()
    cx.add_cell(0, "a", 1)
    cx.add_cell(1, "e", 1)
    cx.add_face(1, "e", "a", 1)
    cx.add_face(1, "e", "a", -1)
    assert cx.boundary_row(1, "e") == {}


def test_boundary_of_edge():
    cx = interval()
    assert dict(boundary(cx, unit_chain(1, "e")).items()) == {"a": -1, "b": 1}


def test_boundary_of_vertices_is_zero_in_dim_minus_one():
    cx = interval()
    bd = boundary(cx, Chain(0, {"a": 1}))
    assert bd.is_zero
    assert bd.dim == -1


def test_boundary_squared_vanishes_on_square():
    cx = square()
    for cell in ("lower", "upper"):
        assert boundary(cx, boundary(cx, unit_chain(2, cell))).is_zero


def test_square_outer_cycle():
    cx = square()
    t = Chain(2, {"lower": 1, "upper": 1})
    assert dict(boundary(cx, t).items()) == {"pq": 1, "qr": 1, "rs": 1, "sp": 1}


def test_boundary_is_linear():
    rng = random.Random(5)
    for _ in range(25):
        cx = random_complex(rng)
        a = random_chain(rng, cx, 2)
        b = random_chain(rng, cx, 2)
        assert boundary(cx, a + b) == boundary(cx, a) + boundary(cx, b)
        assert boundary(cx, a.scale(-3)) == boundary(cx, a).scale(-3)


def test_pair_is_bilinear():
    rng = random.Random(6)
    for _ in range(25):
        cx = random_complex(rng)
        phi = random_cochain(rng, cx, 1)
        psi = random_cochain(rng, cx, 1)
        a = random_chain(rng, cx, 1)
        b = random_chain(rng, cx, 1)
        assert pair(phi, a + b) == pair(phi, a) + pair(phi, b)
        both = Cochain(1, {n: phi.get(n) + psi.get(n)
                           for n in cx.cell_names(1)})
        assert pair(both, a) == pair(phi, a) + pair(psi, a)


def test_pair_of_zero():
    cx = interval()
    assert pair(Cochain(0, {}), Chain(0, {"a": 5})) == 0
    assert pair(Cochain(0, {"a": Fraction(1, 3)}), Chain(0, {})) == 0


def test_pair_exactness():
    cx = interval()
    phi = Cochain(0, {"a": Fraction(1, 3), "b": Fraction(1, 6)})
    val = pair(phi, Chain(0, {"a": 1, "b": 2}))
    assert val == Fraction(2, 3)
    assert isinstance(val, Fraction)


def test_check_chain_membership():
    cx = interval()
    with pytest.raises(DomainError):
        cx.check_chain(Chain(1, {"nope": 1}))
    cx.check_chain(Chain(1, {"e": 1}))


def test_cofaces_mirror_boundary_rows():
    rng = random.Random(7)
    pairs = 0
    for _ in range(10):
        cx = random_complex(rng, signs=(-2, -1, 1, 2))
        assert cx.cofaces(0) == {}
        for dim in (1, 2):
            index = cx.cofaces(dim)
            assert list(index) == cx.cell_names(dim - 1)
            order = {name: i for i, name in enumerate(cx.cell_names(dim))}
            for face, row in index.items():
                cells = [order[cell] for cell, _ in row]
                assert cells == sorted(cells) and len(set(cells)) == len(cells)
                for cell, sign in row:  # every indexed pair is a boundary entry
                    assert cx.boundary_row(dim, cell)[face] == sign
            for cell in cx.cell_names(dim):  # every boundary entry is indexed
                for face, sign in cx.boundary_row(dim, cell).items():
                    assert (cell, sign) in index[face]
                    pairs += 1
    assert pairs > 0


def test_validate_flags_boundary_squared():
    cx = CellComplex()
    cx.add_cell(0, "a", 1)
    cx.add_cell(1, "e", 1)
    cx.add_cell(2, "f", 1)
    cx.add_face(1, "e", "a", 1)
    cx.add_face(2, "f", "e", 1)
    rep = validate(cx)
    assert not rep.ok
    assert any(e.code == "boundary-squared" for e in rep.errors())


def test_validate_warnings():
    cx = CellComplex()
    cx.add_cell(0, "a", 0)
    cx.add_cell(0, "b", 1)
    cx.add_cell(1, "e", 1)
    cx.add_face(1, "e", "a", 2)
    cx.add_face(1, "e", "b", -1)
    rep = validate(cx)
    assert rep.ok  # warnings only
    codes = {e.code for e in rep.warnings()}
    assert codes == {"zero-measure", "non-regular"}


def test_validate_clean_square():
    assert validate(square()).ok


@given(st.dictionaries(st.sampled_from(["pq", "qr", "rs", "sp", "pr"]),
                       st.integers(-4, 4)),
       st.dictionaries(st.sampled_from(["pq", "qr", "rs", "sp", "pr"]),
                       st.integers(-4, 4)))
@settings(max_examples=60, deadline=None)
def test_boundary_additive_on_square_edges(ca, cb):
    cx = square()
    a, b = Chain(1, ca), Chain(1, cb)
    assert boundary(cx, a + b) == boundary(cx, a) + boundary(cx, b)


@given(st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=40, deadline=None)
def test_boundary_squared_property(u, v):
    cx = square()
    t = Chain(2, {"lower": u, "upper": v})
    assert boundary(cx, boundary(cx, t)).is_zero
