import hashlib
import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import pplateau.flatnorm as flatnorm
from pplateau.errors import DomainError
from pplateau.flatnorm import flat_norm_real
from pplateau.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, solve_lp

from tcommon import grid, grid_outer_boundary, random_chain, random_complex, verify_certificate


def brute_force_min(c, rows, b):
    """Enumerate all basic solutions of Ax = b, x >= 0; None if infeasible.

    Independent oracle for tiny instances. Assumes the optimum, if any, is
    attained at a basic feasible solution (true when the LP is not unbounded).
    """
    m, n = len(rows), len(c)
    best = None
    for cols in itertools.combinations(range(n), min(m, n)):
        a = [[Fraction(rows[i][j]) for j in cols] for i in range(m)]
        rhs = [Fraction(v) for v in b]
        # gaussian elimination
        cols_l = list(cols)
        mat = [row[:] + [rhs[i]] for i, row in enumerate(a)]
        rank_cols = []
        r = 0
        for j in range(len(cols_l)):
            piv = next((i for i in range(r, m) if mat[i][j] != 0), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            inv = 1 / mat[r][j]
            mat[r] = [v * inv for v in mat[r]]
            for i in range(m):
                if i != r and mat[i][j] != 0:
                    f = mat[i][j]
                    mat[i] = [vi - f * vr for vi, vr in zip(mat[i], mat[r])]
            rank_cols.append(j)
            r += 1
            if r == m:
                break
        if any(all(mat[i][j] == 0 for j in range(len(cols_l))) and mat[i][-1] != 0
               for i in range(m)):
            continue  # inconsistent
        x = [Fraction(0)] * n
        ok = True
        for rr, j in enumerate(rank_cols):
            val = mat[rr][-1]
            if val < 0:
                ok = False
                break
            x[cols_l[j]] = val
        if not ok:
            continue
        val = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
        if best is None or val < best:
            best = val
    return best


def test_trivial_optimum():
    res = solve_lp([0, 1], [[1, 1]], [1])
    assert res.status == OPTIMAL
    assert res.value == 0
    assert res.x == (Fraction(1), Fraction(0))


def test_forced_value():
    res = solve_lp([1, 1], [[1, -1]], [2])
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.x[0] == 2


def test_infeasible():
    res = solve_lp([1], [[1], [1]], [1, 2])
    assert res.status == INFEASIBLE
    assert solve_lp([0], [[0]], [1]).status == INFEASIBLE


def test_unbounded():
    res = solve_lp([-1, 0], [[1, -1]], [0])
    assert res.status == UNBOUNDED


def test_no_constraints():
    assert solve_lp([1, 2], [], []).value == 0
    assert solve_lp([-1], [], []).status == UNBOUNDED


def test_ragged_matrix_rejected():
    with pytest.raises(DomainError):
        solve_lp([1, 2], [[1]], [0])


def test_rational_data():
    res = solve_lp([Fraction(1, 3), Fraction(1, 7)],
                   [[Fraction(1, 2), Fraction(1, 2)]], [Fraction(5)])
    assert res.status == OPTIMAL
    assert res.value == Fraction(10, 7)
    assert res.x == (Fraction(0), Fraction(10))


def test_dual_matches_value():
    c = [3, 2, 4]
    rows = [[1, 1, 2], [2, 0, 1]]
    b = [4, 5]
    res = solve_lp(c, rows, b)
    assert res.status == OPTIMAL
    assert sum(yi * bi for yi, bi in zip(res.y, b)) == res.value
    assert verify_certificate(c, rows, b, res.x, res.y)


def test_certificate_rejects_tampering():
    c = [1, 1]
    rows = [[1, -1]]
    b = [2]
    res = solve_lp(c, rows, b)
    bad_x = (res.x[0] + 1, res.x[1])
    assert not verify_certificate(c, rows, b, bad_x, res.y)


def test_degenerate_pivoting_terminates():
    # multiple rows force the same vertex; Bland's rule must not cycle
    c = [-Fraction(3, 4), 150, -Fraction(1, 50), 6, 0, 0, 0]
    rows = [
        [Fraction(1, 4), -60, -Fraction(1, 25), 9, 1, 0, 0],
        [Fraction(1, 2), -90, -Fraction(1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    res = solve_lp(c, rows, b)
    assert res.status == OPTIMAL
    assert res.value == -Fraction(1, 20)


def feasible_instances():
    """120 LPs with c >= 0 (never unbounded) and a feasible point by construction."""
    rng = random.Random(31)
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        c = [Fraction(rng.randint(0, 4)) for _ in range(n)]
        x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        b = [sum(row[j] * x0[j] for j in range(n)) for row in rows]
        yield c, rows, b


def signed_instances():
    """60 LPs with signed costs and right-hand sides, any status."""
    rng = random.Random(32)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        c = [Fraction(rng.randint(-1, 3)) for _ in range(n)]
        b = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
        yield c, rows, b


def test_random_instances_against_brute_force():
    for c, rows, b in feasible_instances():
        res = solve_lp(c, rows, b)
        assert res.status == OPTIMAL  # x0 is feasible by construction
        expect = brute_force_min(c, rows, b)
        assert expect is not None
        assert res.value == expect
        assert verify_certificate(c, rows, b, res.x, res.y)


def test_random_duals_are_exact_certificates():
    for c, rows, b in signed_instances():
        res = solve_lp(c, rows, b)
        if res.status != OPTIMAL:
            continue
        assert sum(yi * bi for yi, bi in zip(res.y, b)) == res.value
        assert verify_certificate(c, rows, b, res.x, res.y)


# SHA-256 of repr([(status, value, x, y), ...]) over feasible_instances() then
# signed_instances(), recorded with the solver before lexicographic stages
# existed (it re-solved one LP per stage from scratch).
FROM_SCRATCH_DIGEST = "f6b21115e5c59c160ee0e4dc787aa92f767d70b3d42dc03607895d278a61c527"


def test_empty_lex_is_bit_identical_to_the_plain_solver():
    results = []
    for c, rows, b in itertools.chain(feasible_instances(), signed_instances()):
        res = solve_lp(c, rows, b, lex=())
        assert res == solve_lp(c, rows, b)
        results.append((res.status, res.value, res.x, res.y))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == FROM_SCRATCH_DIGEST


def dot(u, v):
    return sum(Fraction(a) * b for a, b in zip(u, v))


def test_lex_order_decides_on_a_degenerate_face():
    # min x0 + x1 + 2 x2 on x0 + x1 + x2 = 1: the optimal face is the edge
    # x0 + x1 = 1, x2 = 0 (reduced cost 1 on x2), and the base vertex is x0 = 1.
    c, rows, b = [1, 1, 2], [[1, 1, 1]], [1]
    base = solve_lp(c, rows, b)
    assert base.x == (1, 0, 0) and base.value == 1 and base.y == (1,)
    first_x0 = solve_lp(c, rows, b, lex=[[1, 0, 0], [0, 1, 0]])
    first_x1 = solve_lp(c, rows, b, lex=[[0, 1, 0], [1, 0, 0]])
    assert first_x0.x == (0, 1, 0)
    assert first_x1.x == (1, 0, 0)
    # Maximizing x2 would leave the face; on the face x2 is fixed at zero.
    leave = solve_lp(c, rows, b, lex=[[0, 0, -1], [1, 0, 0]])
    assert leave.x == (0, 1, 0)
    for res in (first_x0, first_x1, leave):
        assert (res.status, res.value, res.y) == (OPTIMAL, base.value, base.y)
        assert verify_certificate(c, rows, b, res.x, res.y)


def test_unbounded_stage_pins_the_base_value():
    # Every feasible point is optimal (c = 0) and x1 = x0 + x2 - 1 is unbounded.
    # Stage 1 (min -x1) has no minimum, so x1 keeps its base value 0; stage 2
    # then finds min x0 = 1. Without that pin, stage 2 would reach x0 = 0.
    c, rows, b = [0, 0, 0], [[1, 1, -1]], [1]
    assert solve_lp(c, rows, b).x == (1, 0, 0)
    assert solve_lp(c, rows, b, lex=[[1, 0, 0]]).x == (0, 1, 0)
    res = solve_lp(c, rows, b, lex=[[0, -1, 0], [1, 0, 0]])
    assert res.status == OPTIMAL
    assert res.x == (1, 0, 0)


def test_pin_that_cannot_be_met_returns_the_base_optimum():
    # Stage 1 gives min x0 = 0, which forces x1 = 1 + x2 >= 1. Stage 2
    # (min -x1) is unbounded, and its pin x1 = 0 (the base value) conflicts
    # with stage 1's, so the result is the base optimum.
    c, rows, b = [0, 0, 0], [[1, 1, -1]], [1]
    base = solve_lp(c, rows, b)
    res = solve_lp(c, rows, b, lex=[[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert (res.status, res.value, res.x, res.y) == (OPTIMAL, base.value, base.x, base.y)
    assert res.pivots > base.pivots


def test_pinned_counts_the_stages_held_at_the_base_value():
    c, rows, b = [0, 0, 0], [[1, 1, -1]], [1]
    assert solve_lp(c, rows, b).pinned == 0
    assert solve_lp(c, rows, b, lex=[[1, 0, 0]]).pinned == 0  # the stage has a minimum
    assert solve_lp(c, rows, b, lex=[[0, -1, 0], [1, 0, 0]]).pinned == 1
    # The second stage's pin conflicts with the first stage's optimum, so
    # nothing is held and the base optimum comes back.
    assert solve_lp(c, rows, b, lex=[[1, 0, 0], [0, -1, 0], [0, 0, 1]]).pinned == 0
    assert solve_lp([0, 0], [], [], lex=[[-1, 1], [-1, 0]]).pinned == 2


def test_lex_without_constraints_runs_its_stages():
    # m = 0: the base optimum is x = 0 and every stage still runs. A stage
    # unbounded on the face appends its pin as the first row.
    assert solve_lp([0, 0], [], [], lex=[[1, 1]]) == \
        solve_lp([0, 0], [], []) == LPResult(OPTIMAL, 0, (0, 0), (), 0)
    res = solve_lp([0, 0], [], [], lex=[[-1, 1], [-1, 0]])
    assert (res.status, res.value, res.x, res.y) == (OPTIMAL, 0, (0, 0), ())
    assert res.pivots == 2  # one pivot takes each pin row's artificial out of the basis
    assert solve_lp([-1, 0], [], [], lex=[[1, 0]]).status == UNBOUNDED
    with pytest.raises(DomainError):
        solve_lp([0, 0], [], [], lex=[[1]])


def test_lex_matches_from_scratch_stages_on_randoms():
    """Against one fresh LP per stage over the optimal set: the stage values
    agree, or the pins conflict and both keep the base optimum."""
    rng = random.Random(5)
    unbounded = 0
    for _ in range(300):
        m = rng.randint(0, 3)
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        c = [Fraction(rng.choice((0, 0, 1, 2))) for _ in range(n)]
        x0 = [Fraction(rng.randint(0, 2)) for _ in range(n)]
        b = [dot(row, x0) for row in rows]
        lex = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        base = solve_lp(c, rows, b)
        res = solve_lp(c, rows, b, lex=lex)
        assert (res.status, res.value, res.y) == (base.status, base.value, base.y)
        if base.status != OPTIMAL:
            continue
        pins, pin_rhs = [], []
        for obj in lex:
            sub = solve_lp(obj, rows + [c] + pins, b + [base.value] + pin_rhs)
            unbounded += sub.status == UNBOUNDED
            pins.append(obj)
            pin_rhs.append(sub.value if sub.status == OPTIMAL else dot(obj, base.x))
        if solve_lp(c, rows + [c] + pins, b + [base.value] + pin_rhs).status == OPTIMAL:
            assert [dot(obj, res.x) for obj in lex] == pin_rhs
        else:
            assert res.x == base.x
        assert verify_certificate(c, rows, b, res.x, res.y)
    assert unbounded > 0


def flat_norm_lps(monkeypatch):
    """(c, rows, b, lex) of each LP `flat_norm_real` builds: the outer
    boundaries of the n x n grids, n = 1..5, then 120 random complexes, every
    other one with zero-measure cells."""
    lps = []

    def recording(c, rows, b, lex=()):
        lps.append((c, rows, b, lex))
        return solve_lp(c, rows, b, lex=lex)

    monkeypatch.setattr(flatnorm, "solve_lp", recording)
    for n in range(1, 6):
        flat_norm_real(grid(n), grid_outer_boundary(n))
    rng = random.Random(19)
    for i in range(120):
        cx = random_complex(rng, zero_share=0.25 if i % 2 else 0.0)
        flat_norm_real(cx, random_chain(rng, cx, 1))
    return lps


def rational_lps():
    """300 LPs with rational data, signed costs and right-hand sides and up to
    three lexicographic stages, of every status."""
    rng = random.Random(20)

    def q(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 4)))

    for _ in range(300):
        m = rng.randint(0, 4)
        n = rng.randint(1, 6)
        rows = [[q(-3, 3) for _ in range(n)] for _ in range(m)]
        c = [rng.choice((0, 0, q(-1, 3))) for _ in range(n)]
        b = [q(-3, 3) for _ in range(m)]
        lex = [[q(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        yield c, rows, b, lex


# SHA-256 of repr([(status, value, x, y, pivots, pinned), ...]) over
# flat_norm_lps() then rational_lps(), recorded while the tableau still held
# `Fraction` entries; the integer rows must reproduce it.
PIN_DIGEST = "5556175e7c2c3dd39c63113129fefa2ed3d1990a6669284827a2c3d1ed8013c4"


def test_results_match_the_pinned_corpus(monkeypatch):
    results = [solve_lp(c, rows, b, lex=lex)
               for c, rows, b, lex in flat_norm_lps(monkeypatch) + list(rational_lps())]
    statuses = {r.status for r in results}
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert any(r.pinned > 0 for r in results)
    fields = [(r.status, r.value, r.x, r.y, r.pivots, r.pinned) for r in results]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == PIN_DIGEST


def scale_rows(rows, b, k, which):
    """Rows i in `which` of A and b multiplied by k."""
    return ([[k * v for v in row] if i in which else row for i, row in enumerate(rows)],
            [k * v if i in which else v for i, v in enumerate(b)])


def test_scaling_every_row_divides_only_the_dual():
    """Scaling all of A and b by one rational k > 0 keeps every sign and
    every ratio that the simplex compares, in both phases: status, x, value,
    pivots and pinned stay, and y becomes y / k."""
    rng = random.Random(21)
    for c, rows, b, lex in rational_lps():
        k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        base = solve_lp(c, rows, b, lex=lex)
        res = solve_lp(c, *scale_rows(rows, b, k, range(len(rows))), lex=lex)
        assert (res.status, res.x, res.value, res.pivots, res.pinned) == \
            (base.status, base.x, base.value, base.pivots, base.pinned)
        assert res.y == (None if base.y is None else tuple(v / k for v in base.y))


def test_scaling_one_row_keeps_the_optimum():
    """Scaling row i alone reweights that row's artificial in the phase 1
    objective, so the phase 1 pivots may change, and on some of these draws
    they do. The status and value stay, and y with y_i multiplied by k
    certifies the result on the unscaled LP; with one row nothing changes."""
    rng = random.Random(22)
    moved = 0
    for c, rows, b, lex in rational_lps():
        if not rows:
            continue
        i = rng.randrange(len(rows))
        k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        base = solve_lp(c, rows, b, lex=lex)
        res = solve_lp(c, *scale_rows(rows, b, k, {i}), lex=lex)
        assert (res.status, res.value) == (base.status, base.value)
        moved += res.pivots != base.pivots
        if len(rows) == 1:
            assert (res.x, res.pivots, res.pinned) == (base.x, base.pivots, base.pinned)
        if res.status == OPTIMAL:
            y = [v * k if r == i else v for r, v in enumerate(res.y)]
            assert verify_certificate(c, rows, b, res.x, y)
    assert moved > 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), None, "one", "1/x"])
def test_non_rational_data_is_a_domain_error(bad):
    for c, rows, b, lex in (([bad, 1], [[1, 1]], [1], ()), ([1, 1], [[1, bad]], [1], ()),
                            ([1, 1], [[1, 1]], [bad], ()), ([1, 1], [[1, 1]], [1], [[bad, 0]])):
        with pytest.raises(DomainError):
            solve_lp(c, rows, b, lex=lex)


def test_data_that_fraction_reads_stays_accepted():
    exact = solve_lp([Fraction(1, 2), 1], [[1, Fraction(1, 4)]], [Fraction(3, 2)])
    assert exact.x == (Fraction(3, 2), 0)
    for half, quarter in ((0.5, 0.25), ("1/2", "0.25"), (Decimal("0.5"), Decimal("0.25"))):
        assert solve_lp([half, True], [[1, quarter]], ["3/2"]) == exact
