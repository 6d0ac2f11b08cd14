"""The branch-and-bound engine against brute force over the whole box."""

import itertools
import random
from fractions import Fraction

import pytest

from pplateau.numeric import strictly_less, values_equal
from pplateau.search import search


def brute_force(names, domains, costs, rows, boxes, row_costs, limit):
    """Every point in lexicographic order, with the engine's tie rule:
    a strictly better point restarts the list, a tie joins it up to `limit`."""
    best, found, truncated = None, [], False
    for point in itertools.product(*(domains[n] for n in names)):
        at = dict(zip(names, point))
        sums = {e: sum(s * at[n] for n, s in terms) for e, terms in rows.items()}
        if any(not lo <= sums[e] <= hi for e, (lo, hi) in boxes.items()):
            continue
        value = sum(costs[n][at[n]] for n in names) + sum(
            cost(sums[e]) for e, cost in row_costs.items())
        if best is None or strictly_less(value, best):
            best, found, truncated = value, [point], False
        elif values_equal(value, best):
            if limit is None or len(found) < limit:
                found.append(point)
            else:
                truncated = True
    return best, found, truncated


def _least(cost):
    return lambda lo, hi: min(cost(r) for r in range(lo, hi + 1))


def _random_instance(rng, exact):
    # Few distinct cost values make ties common; dyadic floats sum exactly in
    # any order, so the float path can be held to identical values as well.
    pool = [Fraction(k, 2) for k in range(-1, 4)] if exact else [k / 4 for k in range(-1, 4)]
    names = [f"x{i}" for i in range(rng.randint(3, 5))]
    domains = {}
    for n in names:
        lo = rng.randint(-2, 2)
        domains[n] = range(lo, rng.randint(lo, 2) + 1)
    costs = {n: {v: rng.choice(pool) for v in domains[n]} for n in names}
    rows, boxes, point_costs = {}, {}, {}
    for r in range(rng.randint(0, 4)):
        e = f"r{r}"
        boxed = rng.random() < 0.6
        members = rng.sample(names, rng.randint(1 if boxed else 0, len(names)))
        rows[e] = [(n, rng.choice((-2, -1, 1, 2))) for n in members]
        if boxed:
            lo = rng.randint(-4, 2)
            boxes[e] = (lo, lo + rng.randint(0, 5))
        if not boxed or rng.random() < 0.3:
            target, weight = rng.randint(-3, 3), rng.choice(pool[1:])
            table = [0] + sorted(rng.choice(pool[1:]) for _ in range(3))
            point_costs[e] = (lambda r, t=target, w=weight, tab=table:
                              w * (tab[abs(t - r)] if abs(t - r) < 4 else tab[3] + abs(t - r)))
    return names, domains, costs, rows, boxes, point_costs


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("limit", [None, 1, 2])
def test_engine_matches_brute_force(exact, limit):
    rng = random.Random(f"{exact}-{limit}")
    seen = {"feasible": 0, "infeasible": 0, "ties": 0, "truncated": 0, "costed": 0}
    for _ in range(150):
        names, domains, costs, rows, boxes, point_costs = _random_instance(rng, exact)
        want = brute_force(names, domains, costs, rows, boxes, point_costs, limit)
        out = search(names, domains, costs, rows, boxes,
                     {e: _least(c) for e, c in point_costs.items()}, limit=limit)
        assert (out.best, out.found, out.truncated) == want, (rows, boxes)
        seen["feasible" if want[0] is not None else "infeasible"] += 1
        seen["ties"] += len(want[1]) > 1
        seen["truncated"] += want[2]
        seen["costed"] += bool(point_costs) and want[0] is not None
    assert seen["feasible"] >= 50 and seen["infeasible"] >= 5 and seen["costed"] >= 30
    if limit != 1:
        assert seen["ties"] >= 10
    if limit is not None:
        assert seen["truncated"] >= 10


def test_strictly_better_leaf_clears_truncated():
    # Leaves in order: (0, 0) and (0, 1) tie at 1, which truncates at limit 1;
    # (1, 0) then costs 0 and clears it; (1, 1) breaks the row's box.
    names = ["a", "b"]
    domains = {"a": range(0, 2), "b": range(0, 2)}
    costs = {"a": {0: 1, 1: 0}, "b": {0: 0, 1: 0}}
    rows = {"r": [("a", 1), ("b", 1)]}
    first = search(names, {"a": range(0, 1), "b": domains["b"]}, costs, rows, {"r": (0, 1)}, {},
                   limit=1)
    assert (first.best, first.found, first.truncated) == (1, [(0, 0)], True)
    out = search(names, domains, costs, rows, {"r": (0, 1)}, {}, limit=1)
    assert (out.best, out.found, out.truncated) == (0, [(1, 0)], False)


def test_ties_stop_once_truncated():
    # All four points tie at 0. At limit 1, (0, 1) truncates, and the subtree
    # a = 1 only ties, so it is not entered: root, a = 0, two leaves, a = 1.
    names = ["a", "b"]
    domains = {"a": range(0, 2), "b": range(0, 2)}
    costs = {"a": {0: 0, 1: 0}, "b": {0: 0, 1: 0}}
    out = search(names, domains, costs, {}, {}, {}, limit=1)
    assert (out.best, out.found, out.truncated, out.nodes) == (0, [(0, 0)], True, 5)
    out = search(names, domains, costs, {}, {}, {}, limit=None)
    assert (out.found, out.truncated, out.nodes) == ([(0, 0), (0, 1), (1, 0), (1, 1)], False, 7)
