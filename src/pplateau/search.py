"""Lexicographic branch-and-bound over bounded integer variables.

`solver.solve` and `flatnorm.h_flat_distance` both run on `search`. Values
are tried in ascending order, so leaves come in lexicographic order. Each
row tracks its assigned terms' sum and the range its free terms can add, and
a branching variable keeps only the values that leave each of its rows able
to meet its box. A node's bound is the assigned costs, each free variable's
cheapest value and each costed row's least cost over its reachable range;
a branching step moves only its variable's rows, so only their bounds are
recomputed. One tie rule: a subtree whose bound only ties the incumbent is
searched until `limit` minimizers are held and one more tie has set
`truncated`; a strictly better leaf clears `truncated`.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional

from .errors import DomainError
from .numeric import Number, strictly_less


def _quotients(u: int, w: int, s: int) -> tuple[int, int]:
    """The integers t with u <= s * t <= w, as inclusive ends (first > last
    when there are none); dividing by a negative s swaps u and w."""
    if s < 0:
        u, w = w, u
    return -(-u // s), w // s


def _propagate(touch: dict[str, list[tuple[str, int]]], box: dict[str, tuple[int, int]],
               caps: dict[str, int]) -> dict[str, range]:
    """Bounds-consistent coefficient domains inside the cap box.

    Each (m-1)-cell row reads lo <= sum(s * t) <= hi over its cofaces. A term
    s * t can reach at most what the box leaves after the other terms take
    their extremes, so its cell's interval shrinks to that range, rounded
    inward. Rows are revised until none shrinks a domain: the fixed point
    drops only values no admissible chain in the cap box takes, and the loop
    ends because every revision that requeues a row strictly shrinks a finite
    integer interval.
    """
    lo = {name: -cap for name, cap in caps.items()}
    hi = dict(caps)
    rows_of: dict[str, list[str]] = {name: [] for name in caps}
    for e, row in touch.items():
        for name, _ in row:
            rows_of[name].append(e)
    pending = [e for e, row in touch.items() if row]
    queued = set(pending)
    while pending:
        e = pending.pop()
        queued.discard(e)
        blo, bhi = box[e]
        terms = [sorted((s * lo[n], s * hi[n])) for n, s in touch[e]]
        least = sum(a for a, _ in terms)
        most = sum(b for _, b in terms)
        for (n, s), (a, b) in zip(touch[e], terms):
            t_lo, t_hi = _quotients(blo - (most - b), bhi - (least - a), s)
            new_lo = max(lo[n], t_lo)
            new_hi = min(hi[n], t_hi)
            if new_lo > new_hi:
                raise DomainError("infeasible constraints: a cell's coefficient box is empty")
            if (new_lo, new_hi) != (lo[n], hi[n]):
                lo[n], hi[n] = new_lo, new_hi
                for f in rows_of[n]:
                    if f not in queued:
                        queued.add(f)
                        pending.append(f)
    return {name: range(lo[name], hi[name] + 1) for name in caps}


class Outcome(NamedTuple):
    best: Optional[Number]         # least objective; None when no point is admissible
    found: list[tuple[int, ...]]   # held minimizers' values in `names` order, ascending
    truncated: bool                # a further tie was seen with `limit` minimizers held
    nodes: int                     # search nodes, pruned ones included


def search(names: list[str], domains: Mapping[str, range],
           costs: Mapping[str, Mapping[int, Number]],
           rows: Mapping[str, list[tuple[str, int]]], boxes: Mapping[str, tuple[int, int]],
           row_costs: Mapping[str, Callable[[int, int], Number]],
           limit: Optional[int] = None) -> Outcome:
    """Minimize the variables' costs plus the rows' costs over admissible points.

    `costs` gives each variable's cost at each value of its nonempty domain.
    `rows` maps a row to its terms (variable, sign), each variable at most
    once. A row is held inside its inclusive box, or without one inside its
    reachable range, so it never binds. `row_costs[e](lo, hi)` is row e's
    least cost over values in [lo, hi]. The caller checks termless rows.
    """
    # Per variable: (row, sign, least and greatest term, row box), and its costed rows.
    entries: dict[str, list[tuple[str, int, int, int, int, int]]] = {n: [] for n in names}
    signs: dict[str, list[tuple[str, int]]] = {n: [] for n in names}
    costed: dict[str, list[tuple[str, Callable[[int, int], Number]]]] = {n: [] for n in names}
    # Per row: the assigned terms' sum, the free terms' least and greatest
    # sums, and for a costed row its least cost over that reachable range.
    psum, rest_lo, rest_hi, held = dict.fromkeys(rows, 0), {}, {}, {}
    root: Number = 0
    for e, terms in rows.items():
        ends = [sorted((s * domains[n][0], s * domains[n][-1])) for n, s in terms]
        rest_lo[e] = least = sum(a for a, _ in ends)
        rest_hi[e] = most = sum(b for _, b in ends)
        lo, hi = boxes.get(e, (least, most))
        cost = row_costs.get(e)
        if cost is not None:
            held[e] = cost(least, most)
            root = root + held[e]
        for (n, s), (a, b) in zip(terms, ends):
            entries[n].append((e, s, a, b, lo, hi))
            signs[n].append((e, s))
            if cost is not None:
                costed[n].append((e, cost))
    suffix_min: list[Number] = [0] * (len(names) + 1)
    for i in range(len(names) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min(costs[names[i]].values())

    best: Optional[Number] = None
    found: list[tuple[int, ...]] = []
    truncated = False
    nodes = 0
    values = [0] * len(names)

    def descend(i: int, acc: Number) -> None:
        nonlocal best, truncated, nodes
        nodes += 1
        if best is not None:
            bound = acc + suffix_min[i]
            if strictly_less(best, bound) or (truncated and not strictly_less(bound, best)):
                return
        if i == len(names):
            if best is None or strictly_less(acc, best):
                best = acc
                found[:] = [tuple(values)]
                truncated = False
            elif limit is None or len(found) < limit:  # the test above leaves only ties
                found.append(tuple(values))
            else:
                truncated = True
            return
        name = names[i]
        here = entries[name]
        d = domains[name]
        first, last = d[0], d[-1]
        for e, s, a, b, lo, hi in here:
            rl = rest_lo[e] - a
            rh = rest_hi[e] - b
            rest_lo[e] = rl
            rest_hi[e] = rh
            v_lo, v_hi = _quotients(lo - psum[e] - rh, hi - psum[e] - rl, s)
            if v_lo > first:
                first = v_lo
            if v_hi < last:
                last = v_hi
        step = signs[name]
        tab = costs[name]
        rc = costed[name]
        if rc:
            before = {e: held[e] for e, _ in rc}
        for v in range(first, last + 1):
            for e, s in step:
                psum[e] += s * v
            values[i] = v
            child = acc + tab[v]
            if rc:
                for e, cost in rc:
                    p = psum[e]
                    held[e] = now = cost(p + rest_lo[e], p + rest_hi[e])
                    child = child + (now - before[e])
            descend(i + 1, child)
            for e, s in step:
                psum[e] -= s * v
        if rc:
            held.update(before)
        for e, _, a, b, _, _ in here:
            rest_lo[e] += a
            rest_hi[e] += b

    descend(0, root)
    return Outcome(best, found, truncated, nodes)
