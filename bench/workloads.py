"""The benchmark's workloads: fixed lists of seeded operations with checks.

An operation is one timed call into pplateau's public API (`solve` then
`certify` counts as one call on the plateau workload). Its check runs outside
the timer and compares the output with an answer from another route: the
benchmark's own references in `reference.py`, or the library's independent
oracles (`closed_form_solutions`, `exhaustive_oracle`,
`enumerate_flat_integral`, `verify_real_certificate`). Each reference is
computed once per run, at the first check that needs it.

Library functions are looked up on their modules at call time, so that the
traced run's wrappers (see `tracing.py`) see every call the workload makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import pplateau.cli as cli
import pplateau.flatnorm as flatnorm
import pplateau.slicer as slicer
import pplateau.solver as solver
import pplateau.sunflower as sunflower
from pplateau.complexes import CellComplex, Chain, Cochain, boundary, validate
from pplateau.fileio import emit_chain, emit_cochain, emit_complex, emit_integrand
from pplateau.functionals import Integrand
from pplateau.numeric import values_equal
from pplateau.render import render_sunflower

import reference

IDENT = Integrand.identity()
SQRT = Integrand.power(Fraction(1, 2))
QUART = Integrand.power(Fraction(1, 4))
TABLE = Integrand.table([(0, 0), (1, 1), (2, Fraction(3, 2)), (4, 2)])
COST_OF = {"identity": IDENT, "sqrt": SQRT, "table": TABLE}

MC_SIGMAS = 5  # an MC estimate may sit this many combined standard errors off


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right


class Once:
    """A value computed on first use and kept for the rest of the run."""

    def __init__(self, make: Callable[[], object]):
        self._make = make
        self._done = False
        self._value = None

    def get(self):
        if not self._done:
            self._value = self._make()
            self._done = True
        return self._value


def _rng(seed: int, part: str) -> random.Random:
    return random.Random(f"{seed}:{part}")


# -- inputs ----------------------------------------------------------------


def random_complex(rng: random.Random, n0: int, n1: int, n2: int) -> CellComplex:
    """Random 2-complex with the given cell counts and arbitrary incidence signs.

    The generator of the acceptance tests' criteria 3 and 5, except that the
    cell counts come from the caller: the workloads step through a fixed
    schedule of counts, so that every seed's batch does comparable work.
    """
    cx = CellComplex()
    for i in range(n0):
        cx.add_cell(0, f"v{i}", Fraction(rng.randint(1, 3)))
    for i in range(n1):
        cx.add_cell(1, f"e{i}", Fraction(rng.randint(1, 3)))
    for i in range(n2):
        cx.add_cell(2, f"f{i}", Fraction(rng.randint(1, 3)))
    for i in range(n2):
        for j in range(n1):
            if rng.random() < 0.6:
                cx.add_face(2, f"f{i}", f"e{j}", rng.choice((-1, 1)))
    for j in range(n1):
        for k in range(n0):
            if rng.random() < 0.5:
                cx.add_face(1, f"e{j}", f"v{k}", rng.choice((-1, 1)))
    return cx


def random_chain(rng: random.Random, cx: CellComplex, dim: int, lo: int, hi: int,
                 density: float = 0.7) -> Chain:
    return Chain(dim, {name: rng.randint(lo, hi) for name in cx.cell_names(dim)
                       if rng.random() < density})


def random_cochain(rng: random.Random, cx: CellComplex, dim: int) -> Cochain:
    return Cochain(dim, {name: Fraction(rng.randint(-2, 2)) for name in cx.cell_names(dim)
                         if rng.random() < 0.7})


def grid(n: int) -> CellComplex:
    """n x n grid of unit squares; square q{i}_{j} runs counterclockwise."""
    cx = CellComplex()
    for i in range(n + 1):
        for j in range(n + 1):
            cx.add_cell(0, f"v{i}_{j}", 1)
    for i in range(n):
        for j in range(n + 1):
            cx.add_cell(1, f"h{i}_{j}", 1)
            cx.add_face(1, f"h{i}_{j}", f"v{i}_{j}", -1)
            cx.add_face(1, f"h{i}_{j}", f"v{i + 1}_{j}", 1)
    for i in range(n + 1):
        for j in range(n):
            cx.add_cell(1, f"u{i}_{j}", 1)
            cx.add_face(1, f"u{i}_{j}", f"v{i}_{j}", -1)
            cx.add_face(1, f"u{i}_{j}", f"v{i}_{j + 1}", 1)
    for i in range(n):
        for j in range(n):
            q = f"q{i}_{j}"
            cx.add_cell(2, q, 1)
            cx.add_face(2, q, f"h{i}_{j}", 1)
            cx.add_face(2, q, f"u{i + 1}_{j}", 1)
            cx.add_face(2, q, f"h{i}_{j + 1}", -1)
            cx.add_face(2, q, f"u{i}_{j}", -1)
    return cx


def grid_outer_boundary(n: int, scale: int = 1) -> Chain:
    """The outer boundary cycle of the n x n grid, written edge by edge."""
    coeffs = {}
    for i in range(n):
        coeffs[f"h{i}_0"] = scale
        coeffs[f"h{i}_{n}"] = -scale
        coeffs[f"u{n}_{i}"] = scale
        coeffs[f"u0_{i}"] = -scale
    return Chain(1, coeffs)


# -- output comparison -----------------------------------------------------


def _json_value(v):
    """The CLI envelope's spelling of a library value: rationals as 'p/q'."""
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


def _chain_json(c: Chain) -> dict:
    return {name: _json_value(v) for name, v in c.items()}


def _envelope_mismatch(out, command: str, expected: dict) -> Optional[str]:
    """Compare a CLI run's JSON envelope with the library's result.

    Keys the envelope adds beyond `expected` are allowed, so that additive
    envelope changes do not break the benchmark.
    """
    code, text = out
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(text)
    want = {"format": "pplateau-out v1", "command": command, **_json_value(expected)}
    for key, value in want.items():
        if doc.get(key) != value:
            return f"envelope key {key!r}: {doc.get(key)!r} != {value!r}"
    return None


def _cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _chains(chains) -> list[dict]:
    return [dict(c.items()) for c in chains]


# -- plateau -----------------------------------------------------------------

# Petal pairings against unit petal areas: 2 and 3/2 make a petal profitable,
# 1 neutral (free, so ties multiply), 1/2 and 0 costly. k = 8 is the canonical
# scenario; the larger ones mix the classes, because the search's cost depends
# on the petal order (sorted, k = 24 takes ten times as long).
HALF = Fraction(1, 2)
PETAL_PAIRINGS = {
    8: (2, 2, 2, 2, 1, 1, 0, 0),
    16: (1, 0, 2, HALF, 0, 2, 1, HALF, 0, 2, 1, 3 * HALF, 2, 0, 0, 3 * HALF),
    24: (0, 3 * HALF, HALF, 1, 0, 0, 2, 2, 3 * HALF, 1, 0, 2, 0, 0, 0, 1, HALF, 2, 0, 2,
         HALF, 1, 3 * HALF, 2),
}
SQRT_PETALS = (8, 16)  # square-root cost with derived caps
SQRT_K16_PAIRINGS = ("lower", "middle", "upper")
# Random 1-dimensional problems per (vertices, edges, cost) stratum: enough
# that the workload's median operation is a random problem, whose cost then
# varies little from seed to seed.
RANDOM_PER_STRATUM = 3


def _disk_pairings(pairings, dropped) -> dict[str, Fraction]:
    """One disk pairing inside each regime and one on each threshold."""
    lower, middle, upper = reference.sunflower_thresholds(pairings, dropped)
    return {"below": lower - 1, "lower": lower, "low-mid": (lower + middle) / 2,
            "middle": middle, "mid-up": (middle + upper) / 2, "upper": upper,
            "above": upper + 1}


def _sunflower_op(name, pairings, disk, dropped, cost) -> Op:
    s = sunflower.build_sunflower(len(pairings), pairings, disk, dropped_arcs=sorted(dropped))
    p = sunflower.as_problem(s, COST_OF[cost])
    caps = 2 if cost == "identity" else None
    limit = solver.DEFAULT_MINIMIZER_LIMIT
    want = Once(lambda: reference.sunflower_reference(pairings, disk, dropped, cost))
    closed = Once(lambda: sunflower.closed_form_solutions(s, max_minimizers=limit))

    def call():
        sol = solver.solve(p, caps=caps)
        return sol, solver.certify(p, sol)

    def check(out):
        sol, cert = out
        if not cert.ok:
            return f"certify failed: {cert.entries[:2]}"
        value, count = want.get()
        if not values_equal(sol.value.energy, value):
            return f"energy {sol.value.energy} != reference {value}"
        if len(sol.minimizers) != min(count, limit) or sol.truncated != (count > limit):
            return f"{len(sol.minimizers)} minimizers, reference has {count}"
        if cost == "identity":
            c = closed.get()
            if sol.value.energy != c.value.energy or \
                    _chains(sol.minimizers) != _chains(c.minimizers):
                return "minimizer list differs from closed_form_solutions"
        return None

    return Op(name, call, check)


def _random_problem_op(name, p, caps) -> Op:
    want = Once(lambda: solver.exhaustive_oracle(p, caps=caps, max_minimizers=None))

    def call():
        sol = solver.solve(p, caps=caps, max_minimizers=None)
        return sol, solver.certify(p, sol)

    def check(out):
        sol, cert = out
        if not cert.ok:
            return f"certify failed: {cert.entries[:2]}"
        w = want.get()
        if not values_equal(sol.value.energy, w.value.energy):
            return f"energy {sol.value.energy} != oracle {w.value.energy}"
        if _chains(sol.minimizers) != _chains(w.minimizers):
            return "minimizers differ from the exhaustive oracle"
        return None

    return Op(name, call, check)


def plateau(seed: int, tmp: Path) -> list[Op]:
    ops = []
    # The scenarios do not depend on the seed: the petal order alone moves the
    # solve time by up to 2x at k = 24 (in mixed orders), too much for a bound.
    for k, multiset in PETAL_PAIRINGS.items():
        pairings = [Fraction(v) for v in multiset]
        variants = {"full": frozenset(), "drop": frozenset({0})}  # drop the first arc
        for variant, dropped in variants.items():
            for where, disk in _disk_pairings(pairings, dropped).items():
                tag = f"sunflower-k{k}-{variant}-{where}"
                ops.append(_sunflower_op(f"{tag}-identity", pairings, disk, dropped, "identity"))
                if k in SQRT_PETALS and (k < 16 or (variant == "full"
                                                     and where in SQRT_K16_PAIRINGS)):
                    ops.append(_sunflower_op(f"{tag}-sqrt", pairings, disk, dropped, "sqrt"))

    rng = _rng(seed, "random-problems")
    kinds = (IDENT, SQRT, QUART)
    strata = itertools.product(range(1, 5), range(2, 6), range(3), range(RANDOM_PER_STRATUM))
    for i, (n0, n1, kind, _) in enumerate(strata):
        cx = random_complex(rng, n0, n1, 1)
        t0 = random_chain(rng, cx, 1, -1, 1)
        b = random_chain(rng, cx, 0, -2, 2)
        phi = random_cochain(rng, cx, 0)
        p = solver.Problem(cx, 1, b, t0, phi, kinds[kind])
        ops.append(_random_problem_op(f"random-{i}", p, 1 + (n0 + n1 + kind) % 3))

    # Command-line runs on files written here: the 8-petal scenario at its
    # middle threshold, where two families tie.
    rng = _rng(seed, "cli")
    pairings = [Fraction(v) for v in PETAL_PAIRINGS[8]]
    rng.shuffle(pairings)
    disk = _disk_pairings(pairings, frozenset())["middle"]
    s = sunflower.build_sunflower(8, pairings, disk)
    files = {"cx": tmp / "sunflower8.cx", "b": tmp / "budget.chain",
             "phi": tmp / "phi.cochain", "svg": tmp / "sunflower8.svg"}
    files["cx"].write_text(emit_complex(s.cx))
    files["b"].write_text(emit_chain(s.budget_chain))
    files["phi"].write_text(emit_cochain(s.phi))
    p = sunflower.as_problem(s)

    def validate_expected():
        rep = validate(s.cx)
        return {"ok": rep.ok, "violations": [
            {"severity": e.severity, "code": e.code, "message": e.message} for e in rep.entries]}

    def solve_expected():
        sol = solver.solve(p, caps=2)
        return {"value": sol.value.energy, "h_mass": sol.value.h_mass,
                "pairing": sol.value.pairing, "count": len(sol.minimizers),
                "minimizers": [_chain_json(m) for m in sol.minimizers],
                "truncated": sol.truncated, "caps": dict(sorted(sol.caps.items())),
                "bounds_active": sol.bounds_active, "nodes_visited": sol.nodes_visited}

    def sunflower_expected():
        sol = sunflower.closed_form_solutions(s, max_minimizers=solver.DEFAULT_MINIMIZER_LIMIT)
        th = sunflower.thresholds(s)
        classes = sunflower.classify_petals(s)
        value, count = reference.sunflower_reference(pairings, disk, frozenset(), "identity")
        if sol.value.energy != value or len(sol.minimizers) != count:
            raise AssertionError("closed form disagrees with the reference")
        return {"petals": 8, "disk_pairing": disk, "petal_pairings": pairings,
                "dropped_arcs": [], "regimes": sunflower.active_regimes(s),
                "classes": {"negative": list(classes.negative), "neutral": list(classes.neutral),
                            "positive": list(classes.positive)},
                "thresholds": {"lower": th.lower, "middle": th.middle, "upper": th.upper},
                "value": sol.value.energy, "count": len(sol.minimizers),
                "minimizers": [_chain_json(m) for m in sol.minimizers],
                "truncated": sol.truncated, "render": str(files["svg"]),
                "svg": render_sunflower(s, sol.minimizers[0])}

    expected = {"validate": Once(validate_expected), "solve": Once(solve_expected),
                "sunflower": Once(sunflower_expected)}

    def check_solve(out):
        bad = _envelope_mismatch(out, "solve", expected["solve"].get())
        if bad is None:
            value, count = reference.sunflower_reference(pairings, disk, frozenset(), "identity")
            doc = json.loads(out[1])
            if Fraction(doc["value"]) != value or doc["count"] != count:
                return f"CLI solve {doc['value']}/{doc['count']} != reference {value}/{count}"
        return bad

    def check_sunflower(out):
        want = dict(expected["sunflower"].get())
        svg = want.pop("svg")
        bad = _envelope_mismatch(out, "sunflower", want)
        if bad is None and files["svg"].read_text() != svg:
            return "rendered SVG differs from render_sunflower"
        return bad

    phi_arg = ",".join(str(v) for v in pairings)
    ops += [
        Op("cli-validate", lambda: _cli(["validate", str(files["cx"]), "--emit", "json"]),
           lambda out: _envelope_mismatch(out, "validate", expected["validate"].get())),
        Op("cli-solve", lambda: _cli(["solve", "--complex", str(files["cx"]),
                                      "--boundary", str(files["b"]), "--phi", str(files["phi"]),
                                      "--cap", "2", "--emit", "json"]), check_solve),
        Op("cli-sunflower", lambda: _cli(["sunflower", "--petals", "8", "--phi", phi_arg,
                                          f"--disk-pairing={disk}", "--render",
                                          str(files["svg"]), "--emit", "json"]),
           check_sunflower),
    ]
    return ops


# -- flat ----------------------------------------------------------------------

GRID_REAL = (2, 3)  # real flat norm of the outer boundary of the n x n grid


def _real_op(name, cx, t, exact=None, integral: Optional[Once] = None) -> Op:
    def check(cert):
        if not flatnorm.verify_real_certificate(cx, t, cert):
            return "real certificate does not verify"
        if exact is not None and cert.value != exact:
            return f"flat norm {cert.value} != {exact}"
        if integral is not None and not cert.value <= integral.get().value:
            return f"real {cert.value} exceeds integral {integral.get().value}"
        return None

    return Op(name, lambda: flatnorm.flat_norm_real(cx, t), check)


def _enumerated(cx, t1, t2, cap, h=None) -> Once:
    return Once(lambda: flatnorm.enumerate_flat_integral(cx, t1, t2, cap, h))


def _distance_op(name, cx, t1, t2, cap, h=None, want: Optional[Once] = None) -> Op:
    want = want or _enumerated(cx, t1, t2, cap, h)

    if h is None:
        def call():
            return flatnorm.flat_distance_integral(cx, t1, t2, cap)
    else:
        def call():
            return flatnorm.h_flat_distance(cx, t1, t2, h, cap)

    def check(cert):
        w = want.get()
        if not values_equal(cert.value, w.value):
            return f"distance {cert.value} != enumeration {w.value}"
        if cert.remainder != (t1 - t2) - boundary(cx, cert.filling):
            return "remainder is not t1 - t2 - boundary(filling)"
        if h is None and cert.filling != w.filling:
            return "filling differs from the lexicographically least optimum"
        return None

    return Op(name, call, check)


def flat(seed: int, tmp: Path) -> list[Op]:
    ops = []
    rng = _rng(seed, "grid")
    for n in GRID_REAL:
        cx = grid(n)
        ops.append(_real_op(f"grid{n}-real", cx, grid_outer_boundary(n),
                            exact=reference.grid_outer_flat_norm(n)))
    # Distances on the 2x2 grid, cap 1: from the outer boundary (doubled for
    # sqrt) to the boundary of a square the seed picks.
    cx2 = grid(2)
    outer = grid_outer_boundary(2)
    square = boundary(cx2, Chain(2, {f"q{rng.randrange(2)}_{rng.randrange(2)}": 1}))
    ops += [_distance_op("grid2-integral", cx2, outer, square, 1),
            _distance_op("grid2-sqrt", cx2, outer.scale(2), square, 1, SQRT)]

    rng = _rng(seed, "flat-batch")
    batch = []
    for i, (n1, n2) in enumerate(itertools.product(range(2, 6), range(1, 5))):
        cx = random_complex(rng, 1 + i % 4, n1, n2)
        t1 = random_chain(rng, cx, 1, -1, 1)
        t2 = random_chain(rng, cx, 1, -1, 1)
        cap = 1 + i % 2
        enumerated = _enumerated(cx, t1, t2, cap)
        ops += [_distance_op(f"batch{i}-integral", cx, t1, t2, cap, want=enumerated),
                _real_op(f"batch{i}-real", cx, t1 - t2, integral=enumerated),
                _distance_op(f"batch{i}-sqrt", cx, t1, t2, cap, SQRT)]
        batch.append((cx, t1, t2, cap))

    # Command-line runs on the 2x2 grid and the batch's first instance.
    cx, t1, t2, cap = batch[0]
    files = {"grid": tmp / "grid2.cx", "outer": tmp / "outer.chain", "cx": tmp / "batch.cx",
             "t1": tmp / "t1.chain", "t2": tmp / "t2.chain", "sqrt": tmp / "sqrt.integrand"}
    files["grid"].write_text(emit_complex(cx2))
    files["outer"].write_text(emit_chain(grid_outer_boundary(2, scale=2)))
    files["cx"].write_text(emit_complex(cx))
    files["t1"].write_text(emit_chain(t1))
    files["t2"].write_text(emit_chain(t2))
    files["sqrt"].write_text(emit_integrand(SQRT))

    def envelope(mode, cert):
        doc = {"mode": mode, "value": cert.value, "filling": _chain_json(cert.filling),
               "remainder": _chain_json(cert.remainder)}
        if cert.cap is not None:
            doc.update(cap=cert.cap, cap_active=cert.cap_active)
        if cert.dual is not None:
            doc["dual"] = {name: _json_value(v) for name, v in cert.dual.items()}
        return doc

    outer2 = grid_outer_boundary(2, scale=2)
    real = Once(lambda: envelope("real", flatnorm.flat_norm_real(cx2, outer2)))
    integral = Once(lambda: envelope("integral",
                                     flatnorm.flat_distance_integral(cx, t1, t2, cap)))
    weighted = Once(lambda: envelope("h", flatnorm.h_flat_distance(cx2, outer2, Chain(1),
                                                                   SQRT, 1)))

    def check_real(out):
        bad = _envelope_mismatch(out, "flatnorm", real.get())
        want = 2 * reference.grid_outer_flat_norm(2)
        if bad is None and Fraction(json.loads(out[1])["value"]) != want:
            return "CLI real flat norm differs from the grid reference"
        return bad

    ops += [
        Op("cli-flatnorm-real", lambda: _cli(["flatnorm", "--complex", str(files["grid"]),
                                              "--chain", str(files["outer"]), "--emit", "json"]),
           check_real),
        Op("cli-flatnorm-integral",
           lambda: _cli(["flatnorm", "--complex", str(files["cx"]), "--chain", str(files["t1"]),
                         "--to", str(files["t2"]), "--mode", "integral", "--cap", str(cap),
                         "--emit", "json"]),
           lambda out: _envelope_mismatch(out, "flatnorm", integral.get())),
        Op("cli-flatnorm-h",
           lambda: _cli(["flatnorm", "--complex", str(files["grid"]), "--chain",
                         str(files["outer"]), "--mode", "h", "--cap", "1", "--integrand",
                         str(files["sqrt"]), "--emit", "json"]),
           lambda out: _envelope_mismatch(out, "flatnorm", weighted.get())),
    ]
    return ops


# -- slice ---------------------------------------------------------------------

SAMPLES_M1 = 100_000
SAMPLES_M2_SQUARE = 2_000
SAMPLES_M2_GRID = 1_000
GRID_SLOPES = (Fraction(1, 2), Fraction(1, 3))  # unit squares lift to area 7/6
POLYLINES = (  # (ambient dimension, cost) for each seeded polyline
    (2, "identity"), (2, "sqrt"), (2, "table"), (3, "identity"), (3, "sqrt"), (3, "table"))
POLYLINE_VERTICES = 6


def _unit_cube(m: int, n: int) -> "slicer.PolyhedralChain":
    zero = (0,) * n
    if m == 1:
        return slicer.PolyhedralChain(1, n, [((zero, (1,) + (0,) * (n - 1)), 1)])
    a, b, c, d = ((x, y) + (0,) * (n - 2) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))
    return slicer.PolyhedralChain(2, n, [((a, b, c), 1), ((a, c, d), 1)])


def _mc_op(name, chain, h, samples, mc_seed, exact: Once) -> Op:
    """MC H-mass; checked against the exact value within MC_SIGMAS standard errors.

    The reported standard error covers only the chain's own samples. The
    estimate is divided by a calibration average with its own noise, so the
    check adds the calibration's relative error, estimated by running the
    same pipeline on the unit reference cube with another seed.
    """
    cal = Once(lambda: slicer.mc_h_mass(_unit_cube(chain.dim, chain.ambient), IDENT,
                                        samples, mc_seed + 1_000_003))
    seen = []

    def check(est):
        key = (est.estimate, est.stderr, est.calibration, est.samples, est.resampled)
        if not seen:
            seen.append(key)
        elif key != seen[0]:
            return "estimate changed between passes with the same seed"
        ref = cal.get()
        rel_cal = ref.stderr / ref.estimate
        sigma = math.hypot(est.stderr, est.estimate * rel_cal)
        err = abs(est.estimate - exact.get())
        if not err <= MC_SIGMAS * sigma:
            return f"estimate {est.estimate} is {err / sigma:.1f} sigma from {exact.get()}"
        return None

    return Op(name, lambda: slicer.mc_h_mass(chain, h, samples, mc_seed), check)


def slice_(seed: int, tmp: Path) -> list[Op]:
    ops = []
    rng = _rng(seed, "slice")
    for n, cost in POLYLINES:
        # x strictly increases along the path, so segments meet only at ends.
        points = [(Fraction(i),) + tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                                         for _ in range(n - 1))
                  for i in range(POLYLINE_VERTICES)]
        weights = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(POLYLINE_VERTICES - 1)]
        chain = slicer.PolyhedralChain(1, n, [((p, q), w) for p, q, w in
                                              zip(points, points[1:], weights)])
        exact = Once(lambda points=points, weights=weights, cost=cost:
                     reference.polyline_h_mass(points, weights, cost))
        ops.append(_mc_op(f"polyline-R{n}-{cost}", chain, COST_OF[cost], SAMPLES_M1,
                          rng.randrange(2 ** 31), exact))

    o, x, xy, y = ((a, b, 0) for a, b in ((0, 0), (1, 0), (1, 1), (0, 1)))
    triangles = [((o, x, xy), 2), ((o, xy, y), 2)]
    square = slicer.PolyhedralChain(2, 3, triangles)
    frac_triangles = [(tuple(tuple(Fraction(c) for c in v) for v in t), w)
                      for t, w in triangles]
    ops.append(_mc_op("doubled-square-sqrt", square, SQRT, SAMPLES_M2_SQUARE,
                      rng.randrange(2 ** 31),
                      Once(lambda: reference.triangles_h_mass(frac_triangles, "sqrt"))))

    n = 2
    cx = grid(n)
    weights = {(i, j): rng.randint(1, 3) for i in range(n) for j in range(n)}
    sx, sy = GRID_SLOPES
    coords = {f"v{i}_{j}": (i, j, sx * i + sy * j) for i in range(n + 1) for j in range(n + 1)}
    chain = Chain(2, {f"q{i}_{j}": w for (i, j), w in weights.items()})
    surface = slicer.embed_chain(cx, chain, coords)
    ops.append(_mc_op("tilted-grid-table", surface, TABLE, SAMPLES_M2_GRID,
                      rng.randrange(2 ** 31),
                      Once(lambda: reference.tilted_grid_h_mass(weights, sx, sy, "table"))))

    cli_seed = rng.randrange(2 ** 31)
    segment = slicer.PolyhedralChain(1, 2, [(((0, 0), (1, 0)), 2)])

    def slice_expected():
        est = slicer.mc_h_mass(segment, SQRT, SAMPLES_M1, cli_seed)
        expected = math.sqrt(2)
        rel = abs(est.estimate - expected) / expected
        return {"estimate": est.estimate, "stderr": est.stderr, "calibration": est.calibration,
                "samples": est.samples, "resampled": est.resampled, "expected": expected,
                "relative_error": rel, "ok": rel <= 0.05}

    want = Once(slice_expected)

    def check_slice(out):
        if not want.get()["ok"]:
            return "slice-check estimate is more than 5% from sqrt(2)"
        return _envelope_mismatch(out, "slice-check", want.get())

    ops.append(Op("cli-slice-check",
                  lambda: _cli(["slice-check", "--seed", str(cli_seed), "--samples",
                                str(SAMPLES_M1), "--emit", "json"]),
                  check_slice))
    return ops


WORKLOADS = {"plateau": plateau, "flat": flat, "slice": slice_}
