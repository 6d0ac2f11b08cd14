"""Spans around the names through which one pplateau layer calls another.

The wrappers are installed from here, by replacing module attributes and two
methods; no file of the library changes. A span records its name, start and
end on the process CPU clock, its parent span and the phase it ran in (set-up
or a pass number), plus a small note taken from the call (a node count, an LP
size, a sample count). Spans stay in memory and are written out when the run
ends. A layer's self time is its span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable, Optional

import pplateau.cli as cli
import pplateau.flatnorm as flatnorm
import pplateau.functionals as functionals
import pplateau.slicer as slicer
import pplateau.solver as solver
import pplateau.subcurrent as subcurrent
import pplateau.sunflower as sunflower
from pplateau.complexes import CellComplex
from pplateau.functionals import Integrand

NAME, START, END, PARENT, PHASE, NOTE = range(6)


def _solve_note(args, kwargs, sol):
    return [sol.nodes_visited, max(sol.caps.values(), default=0)]


def _lp_note(args, kwargs, result):
    c, rows = args[0], args[1]
    return [len(rows), len(c)]


def _mc_note(args, kwargs, est):
    return [args[0].dim, est.samples, est.resampled]


# (modules holding the name, attribute, span name, note taken from the call).
# A name is patched in every module that calls it across a layer boundary;
# workloads.py calls the library through module attributes, so it is covered.
BOUNDARIES: list[tuple[tuple, str, str, Optional[Callable]]] = [
    ((solver, cli), "solve", "solver.solve", _solve_note),
    ((solver,), "certify", "solver.certify", None),
    ((solver,), "derive_bounds", "solver.derive_bounds", None),
    ((solver,), "boundary_box", "subcurrent.boundary_box", None),
    ((CellComplex,), "cofaces", "complexes.cofaces", None),
    ((solver, flatnorm, subcurrent, functionals), "boundary", "complexes.boundary", None),
    ((Integrand,), "__call__", "functionals.integrand", None),
    ((solver, sunflower), "energy", "functionals.energy", None),
    ((solver, flatnorm, subcurrent), "mass", "functionals.mass", None),
    ((solver, flatnorm, subcurrent), "h_mass", "functionals.h_mass", None),
    ((flatnorm, cli), "flat_norm_real", "flatnorm.real", None),
    ((flatnorm, cli), "flat_distance_integral", "flatnorm.integral", None),
    ((flatnorm, cli), "h_flat_distance", "flatnorm.h", None),
    ((flatnorm,), "solve_lp", "lp.solve_lp", _lp_note),
    ((slicer, cli), "mc_h_mass", "slicer.mc_h_mass", _mc_note),
    ((slicer,), "slice_chain", "slicer.slice_chain", None),
    ((slicer,), "embed_chain", "slicer.embed_chain", None),
    ((cli,), "main", "cli.main", None),
    ((cli,), "load_complex", "fileio.load", None),
    ((cli,), "load_chain", "fileio.load", None),
    ((cli,), "load_cochain", "fileio.load", None),
    ((cli,), "load_integrand", "fileio.load", None),
    ((cli,), "render_output", "fileio.render_output", None),
    ((cli,), "render_sunflower", "render.render_sunflower", None),
    ((sunflower, cli), "build_sunflower", "sunflower.build_sunflower", None),
]

# Measured during set-up, where the workloads call them, not per pass.
SETUP_NAMES = ("sunflower.build_sunflower", "slicer.embed_chain")

RAISED = "raised"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.phase: object = None  # None: wrappers pass calls through unrecorded

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            span = [name, 0, 0, tracer._stack[-1] if tracer._stack else -1, tracer.phase, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[NOTE] = RAISED
                raise
            finally:
                span[END] = time.process_time_ns()
                tracer._stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owners, attr, name, note in BOUNDARIES:
            for owner in owners:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[PHASE], s[NOTE]]
                for s in self.spans]
        doc = {"clock": "process CPU ns", "fields": ["name", "start", "end", "parent",
                                                      "phase", "note"],
               "names": names, "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("ms", "self_ms", "ms_per_solve"):
        return "ms"
    if last == "nodes_per_ms":
        return "1/ms"
    if name.startswith("slicer.samples_per_s"):
        return "1/s"
    if last == "overhead_s":
        return "s"
    return "count"


def _ms(ns: int) -> float:
    return ns / 1e6


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer figures from the spans of `passes` traced passes and of set-up.

    Calls and times are per pass, except the SETUP_NAMES times, which are the
    set-up totals. `.ms` is inclusive time counted once through recursion;
    `.self_ms` subtracts direct children.
    """
    children_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            children_ns[s[PARENT]] += s[END] - s[START]

    def has_ancestor(i: int, name: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    calls: dict[str, int] = {}
    incl: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    setup_incl: dict[str, int] = {}
    nodes = cap_max = lp_rows = lp_cols = resampled = 0
    lp_under = {"flatnorm.real": 0, "flatnorm.integral": 0}
    samples = {1: 0, 2: 0}
    mc_ns = {1: 0, 2: 0}
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        outermost = not has_ancestor(i, name)
        if s[PHASE] == "setup":
            if outermost:
                setup_incl[name] = setup_incl.get(name, 0) + dur
            continue
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + dur - children_ns[i]
        if outermost:
            incl[name] = incl.get(name, 0) + dur
        note = s[NOTE]
        if note == RAISED:
            continue
        if name == "solver.solve":
            nodes += note[0]
            cap_max = max(cap_max, note[1])
        elif name == "lp.solve_lp":
            lp_rows += note[0]
            lp_cols += note[1]
            for parent in lp_under:
                lp_under[parent] += has_ancestor(i, parent)
        elif name == "slicer.mc_h_mass":
            samples[note[0]] = samples.get(note[0], 0) + note[1]
            mc_ns[note[0]] = mc_ns.get(note[0], 0) + dur
            resampled += note[2]

    def per_pass(table: dict, name: str) -> float:
        return table.get(name, 0) / passes

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lp_calls = calls.get("lp.solve_lp", 0)
    out = {
        "solver.solve.calls": per_pass(calls, "solver.solve"),
        "solver.solve.self_ms": _ms(per_pass(self_ns, "solver.solve")),
        "solver.nodes": nodes / passes,
        "solver.nodes_per_ms": ratio(nodes, _ms(self_ns.get("solver.solve", 0))),
        "solver.cap_max": cap_max,
        "solver.derive_bounds.ms": _ms(per_pass(incl, "solver.derive_bounds")),
        "solver.certify.ms": _ms(per_pass(incl, "solver.certify")),
        "subcurrent.boundary_box.ms": _ms(per_pass(incl, "subcurrent.boundary_box")),
        "complexes.cofaces.calls": per_pass(calls, "complexes.cofaces"),
        "complexes.cofaces.ms": _ms(per_pass(incl, "complexes.cofaces")),
        "complexes.boundary.calls": per_pass(calls, "complexes.boundary"),
        "complexes.boundary.ms": _ms(per_pass(incl, "complexes.boundary")),
        "functionals.integrand.calls": per_pass(calls, "functionals.integrand"),
        "functionals.integrand.ms": _ms(per_pass(incl, "functionals.integrand")),
        "functionals.energy.ms": _ms(per_pass(incl, "functionals.energy")),
        "functionals.mass.ms": _ms(per_pass(incl, "functionals.mass")),
        "functionals.h_mass.ms": _ms(per_pass(incl, "functionals.h_mass")),
        "flatnorm.real.calls": per_pass(calls, "flatnorm.real"),
        "flatnorm.real.self_ms": _ms(per_pass(self_ns, "flatnorm.real")),
        "flatnorm.integral.calls": per_pass(calls, "flatnorm.integral"),
        "flatnorm.integral.self_ms": _ms(per_pass(self_ns, "flatnorm.integral")),
        "flatnorm.h.calls": per_pass(calls, "flatnorm.h"),
        "flatnorm.h.self_ms": _ms(per_pass(self_ns, "flatnorm.h")),
        "lp.solve_lp.calls": lp_calls / passes,
        "lp.solve_lp.ms": _ms(per_pass(incl, "lp.solve_lp")),
        "lp.ms_per_solve": ratio(_ms(incl.get("lp.solve_lp", 0)), lp_calls),
        "lp.rows_mean": ratio(lp_rows, lp_calls),
        "lp.cols_mean": ratio(lp_cols, lp_calls),
        "lp.solves_per_real": ratio(lp_under["flatnorm.real"], calls.get("flatnorm.real", 0)),
        "lp.solves_per_integral": ratio(lp_under["flatnorm.integral"],
                                        calls.get("flatnorm.integral", 0)),
        "slicer.mc_h_mass.ms": _ms(per_pass(incl, "slicer.mc_h_mass")),
        "slicer.samples_per_s.m1": ratio(samples[1], mc_ns[1] / 1e9),
        "slicer.samples_per_s.m2": ratio(samples[2], mc_ns[2] / 1e9),
        "slicer.slice_chain.calls": per_pass(calls, "slicer.slice_chain"),
        "slicer.resampled": resampled / passes,
        "slicer.embed_chain.ms": _ms(setup_incl.get("slicer.embed_chain", 0)),
        "cli.main.calls": per_pass(calls, "cli.main"),
        "cli.main.ms": _ms(per_pass(incl, "cli.main")),
        "fileio.load.ms": _ms(per_pass(incl, "fileio.load")),
        "fileio.render_output.ms": _ms(per_pass(incl, "fileio.render_output")),
        "render.render_sunflower.ms": _ms(per_pass(incl, "render.render_sunflower")),
        "sunflower.build_sunflower.ms": _ms(setup_incl.get("sunflower.build_sunflower", 0)),
    }
    return out


def share_under(spans: list[list], child: str, parent: str) -> float:
    """Share of the `parent` spans' time spent in outermost `child` spans below them."""
    under = {i for i, s in enumerate(spans) if s[NAME] == parent and s[PHASE] != "setup"}
    total = sum(spans[i][END] - spans[i][START] for i in under)
    inside = 0
    for s in spans:
        if s[NAME] != child:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != child and p not in under:
            p = spans[p][PARENT]
        if p in under:
            inside += s[END] - s[START]
    return inside / total if total else 0.0


def slice_chain_accounting(spans: list[list]) -> tuple[int, int, int]:
    """slice_chain calls under 2-chain MC spans, those that raised, and 2 x samples.

    Every 2-chain sample, of the chain's stream and of the calibration stream,
    is one slice_chain call; a degenerate slice raises and is drawn again.
    """
    m2 = {i for i, s in enumerate(spans) if s[NAME] == "slicer.mc_h_mass"
          and s[PHASE] != "setup" and s[NOTE] != RAISED and s[NOTE][0] == 2}
    calls = raised = 0
    for s in spans:
        if s[NAME] == "slicer.slice_chain" and s[PARENT] in m2:
            calls += 1
            raised += s[NOTE] == RAISED
    return calls, raised, sum(2 * spans[i][NOTE][1] for i in m2)
