"""Command-line surface.

Thin adapters only: each subcommand loads files, calls one library entry
point, and prints either human-readable text or the versioned JSON envelope.
Exit codes: 0 success, 1 domain error (infeasible, degenerate, validation or
tolerance failure), 2 parse/usage/I-O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .complexes import Chain, Cochain, validate
from .errors import DomainError, ParseError
from .fileio import (
    emit_chain,
    load_chain,
    load_cochain,
    load_complex,
    load_integrand,
    render_output,
)
from .flatnorm import flat_distance_integral, flat_norm_real, h_flat_distance
from .functionals import Integrand
from .numeric import format_rational, to_fraction
from .render import render_sunflower
from .slicer import PolyhedralChain, mc_h_mass
from .solver import DEFAULT_MINIMIZER_LIMIT, Problem, solve
from .sunflower import (
    active_regimes,
    build_sunflower,
    classify_petals,
    closed_form_solutions,
    thresholds,
)


def _scalar_text(v) -> str:
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _load(loader, path):
    try:
        return loader(path)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _chain_payload(chain: Chain) -> dict:
    return {name: coeff for name, coeff in chain.items()}


def _emit(args, command: str, payload: dict, text_lines: list[str]) -> None:
    if args.emit == "json":
        sys.stdout.write(render_output(command, payload))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    cx = _load(load_complex, args.path)
    report = validate(cx)
    lines = [f"{e.severity} {e.code}: {e.message}" for e in report.entries]
    lines.append("ok" if report.ok else "invalid")
    payload = {
        "ok": report.ok,
        "violations": [
            {"severity": e.severity, "code": e.code, "message": e.message}
            for e in report.entries
        ],
    }
    _emit(args, "validate", payload, lines)
    return 0 if report.ok else 1


# ------------------------------------------------------------------- solve

def _parse_cap(text: str) -> Optional[int]:
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError as exc:
        raise ParseError(f"--cap expects an integer or 'auto', got {text!r}") from exc
    if value < 0:
        raise ParseError("--cap must be nonnegative")
    return value


def cmd_solve(args) -> int:
    cx = _load(load_complex, args.complex)
    b = _load(load_chain, args.boundary)
    dim = b.dim + 1
    t0 = _load(load_chain, args.t0) if args.t0 else Chain(dim, {})
    phi = _load(load_cochain, args.phi) if args.phi else Cochain(dim - 1, {})
    h = _load(load_integrand, args.integrand) if args.integrand else Integrand.identity()
    problem = Problem(cx, dim, b, t0, phi, h)
    sol = solve(problem, caps=_parse_cap(args.cap), max_minimizers=args.max_minimizers)

    files = []
    if args.out:
        for i, m in enumerate(sol.minimizers, start=1):
            path = Path(f"{args.out}{i}.chain")
            path.write_text(emit_chain(m))
            files.append(str(path))

    payload = {
        "value": sol.value.energy,
        "h_mass": sol.value.h_mass,
        "pairing": sol.value.pairing,
        "count": len(sol.minimizers),
        "minimizers": [_chain_payload(m) for m in sol.minimizers],
        "truncated": sol.truncated,
        "caps": dict(sorted(sol.caps.items())),
        "bounds_active": sol.bounds_active,
        "nodes_visited": sol.nodes_visited,
    }
    if files:
        payload["files"] = files
    lines = [
        f"value: {_scalar_text(sol.value.energy)}",
        f"h-mass: {_scalar_text(sol.value.h_mass)}",
        f"pairing: {_scalar_text(sol.value.pairing)}",
        f"minimizers: {len(sol.minimizers)}"
        + (" (truncated)" if sol.truncated else ""),
        f"bounds active: {'yes' if sol.bounds_active else 'no'}",
    ]
    for m in sol.minimizers:
        lines.append(emit_chain(m).rstrip("\n"))
    for f in files:
        lines.append(f"wrote {f}")
    _emit(args, "solve", payload, lines)
    return 0


# ---------------------------------------------------------------- flatnorm

def cmd_flatnorm(args) -> int:
    cx = _load(load_complex, args.complex)
    t1 = _load(load_chain, args.chain)
    t2 = _load(load_chain, args.to) if args.to else Chain(t1.dim, {})
    if args.mode == "real":
        cert = flat_norm_real(cx, t1 - t2)
    else:
        if args.cap is None:
            raise ParseError(f"--cap is required for mode {args.mode}")
        if args.mode == "integral":
            cert = flat_distance_integral(cx, t1, t2, args.cap)
        else:
            if not args.integrand:
                raise ParseError("--integrand is required for mode h")
            h = _load(load_integrand, args.integrand)
            cert = h_flat_distance(cx, t1, t2, h, args.cap)

    payload = {
        "mode": args.mode,
        "value": cert.value,
        "filling": _chain_payload(cert.filling),
        "remainder": _chain_payload(cert.remainder),
    }
    if cert.cap is not None:
        payload["cap"] = cert.cap
        payload["cap_active"] = cert.cap_active
    if cert.dual is not None:
        payload["dual"] = {name: v for name, v in cert.dual.items()}
    lines = [f"value: {_scalar_text(cert.value)}"]
    if cert.cap is not None:
        lines.append(f"cap: {cert.cap}" + (" (active)" if cert.cap_active else ""))
    lines.append("filling:")
    lines.append(emit_chain(cert.filling).rstrip("\n"))
    lines.append("remainder:")
    lines.append(emit_chain(cert.remainder).rstrip("\n"))
    _emit(args, "flatnorm", payload, lines)
    return 0


# --------------------------------------------------------------- sunflower

def _parse_variant(text: str, petals: int) -> tuple[int, ...]:
    if text == "full":
        return ()
    if not text.startswith("partial="):
        raise ParseError(f"--variant expects 'full' or 'partial=i,j,...', got {text!r}")
    body = text[len("partial="):]
    if not body:
        raise ParseError("--variant partial= needs at least one arc index")
    dropped = []
    for tok in body.split(","):
        try:
            i = int(tok)
        except ValueError as exc:
            raise ParseError(f"bad arc index {tok!r}") from exc
        if not 1 <= i <= petals:
            raise ParseError(f"arc index {i} out of range 1..{petals}")
        dropped.append(i - 1)
    return tuple(sorted(set(dropped)))


def cmd_sunflower(args) -> int:
    pairings = [to_fraction(tok) for tok in args.phi.split(",")]
    if len(pairings) != args.petals:
        raise ParseError(
            f"--phi lists {len(pairings)} values for {args.petals} petals")
    dropped = _parse_variant(args.variant, args.petals)
    s = build_sunflower(args.petals, pairings, to_fraction(args.disk_pairing),
                        dropped_arcs=dropped)
    th = thresholds(s)
    classes = classify_petals(s)
    regimes = active_regimes(s)
    sol = closed_form_solutions(s, max_minimizers=args.max_minimizers)

    if args.render:
        Path(args.render).write_text(render_sunflower(s, sol.minimizers[0]))

    payload = {
        "petals": args.petals,
        "disk_pairing": s.disk_pairing,
        "petal_pairings": list(s.petal_pairings),
        "dropped_arcs": [i + 1 for i in sorted(s.dropped)],
        "classes": {
            "negative": list(classes.negative),
            "neutral": list(classes.neutral),
            "positive": list(classes.positive),
        },
        "thresholds": {"lower": th.lower, "middle": th.middle, "upper": th.upper},
        "regimes": regimes,
        "value": sol.value.energy,
        "count": len(sol.minimizers),
        "minimizers": [_chain_payload(m) for m in sol.minimizers],
        "truncated": sol.truncated,
    }
    if args.render:
        payload["render"] = args.render
    lines = [
        "thresholds: " + ", ".join(
            format_rational(v) for v in (th.lower, th.middle, th.upper)),
        "regimes: " + ", ".join(f"T_{a}" for a in regimes),
        f"energy: {_scalar_text(sol.value.energy)}",
        f"minimizers: {len(sol.minimizers)}"
        + (" (truncated)" if sol.truncated else ""),
    ]
    for m in sol.minimizers:
        lines.append(emit_chain(m).rstrip("\n"))
    if args.render:
        lines.append(f"wrote {args.render}")
    _emit(args, "sunflower", payload, lines)
    return 0


# ------------------------------------------------------------- slice-check

def cmd_slice_check(args) -> int:
    if not 0 <= args.tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and nonnegative, got {args.tolerance}")
    h = _load(load_integrand, args.integrand) if args.integrand \
        else Integrand.power(Fraction(1, 2))
    expected = float(h(2))
    if expected <= 0:  # the relative error divides by it
        raise DomainError(f"slice-check needs H(2) > 0, got {expected}")
    segment = PolyhedralChain(1, 2, [(((0, 0), (1, 0)), 2)])
    est = mc_h_mass(segment, h, args.samples, args.seed)
    rel = abs(est.estimate - expected) / expected
    ok = rel <= args.tolerance
    payload = {
        "estimate": est.estimate,
        "stderr": est.stderr,
        "calibration": est.calibration,
        "samples": est.samples,
        "resampled": est.resampled,
        "expected": expected,
        "relative_error": rel,
        "ok": ok,
    }
    lines = [
        f"estimate: {est.estimate:.6f}",
        f"stderr: {est.stderr:.6f}",
        f"calibration: {est.calibration:.6f}",
        f"expected: {expected:.6f}",
        f"relative error: {rel:.4%}",
        "PASS" if ok else "FAIL",
    ]
    _emit(args, "slice-check", payload, lines)
    return 0 if ok else 1


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pplateau",
        description="Boundary-constrained chain minimization with concave "
                    "cost, flat norms, sunflower scenarios, slicing checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=("text", "json"), default="text",
                        help="output format (default text)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a complex file for structural violations")
    p.add_argument("path", help="complex file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", parents=[common],
                       help="minimize the constrained energy over integer chains")
    p.add_argument("--complex", required=True, help="complex file")
    p.add_argument("--boundary", required=True,
                   help="budget chain file (dimension m-1)")
    p.add_argument("--t0", help="reference chain file (default zero)")
    p.add_argument("--phi", help="cochain file (default zero)")
    p.add_argument("--integrand", help="integrand file (default identity)")
    p.add_argument("--cap", default="auto",
                   help="coefficient bound: integer or 'auto' (default)")
    p.add_argument("--max-minimizers", type=int, default=DEFAULT_MINIMIZER_LIMIT,
                   help="tie collection limit (default %(default)s)")
    p.add_argument("--out", help="prefix for written minimizer chain files")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("flatnorm", parents=[common],
                       help="flat norm or flat distance of a chain")
    p.add_argument("--complex", required=True, help="complex file")
    p.add_argument("--chain", required=True, help="chain file")
    p.add_argument("--to", help="second chain file for a distance (default zero)")
    p.add_argument("--mode", choices=("real", "integral", "h"), default="real")
    p.add_argument("--cap", type=int,
                   help="filling coefficient bound (integral and h modes)")
    p.add_argument("--integrand", help="integrand file (h mode)")
    p.set_defaults(func=cmd_flatnorm)

    p = sub.add_parser("sunflower", parents=[common],
                       help="closed-form analysis of a sunflower scenario")
    p.add_argument("--petals", type=int, required=True)
    p.add_argument("--phi", required=True,
                   help="comma-separated petal pairings, e.g. 2,2,1,0")
    p.add_argument("--disk-pairing", required=True,
                   help="pairing of the disk boundary with the cochain")
    p.add_argument("--variant", default="full",
                   help="'full' or 'partial=i,j,...' (1-based dropped arcs)")
    p.add_argument("--max-minimizers", type=int, default=DEFAULT_MINIMIZER_LIMIT)
    p.add_argument("--render", help="write a deterministic SVG figure here")
    p.set_defaults(func=cmd_sunflower)

    p = sub.add_parser("slice-check", parents=[common],
                       help="Monte-Carlo slicing identity on a doubled unit segment")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--integrand",
                   help="integrand file (default the square-root power cost)")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="relative error bound (default %(default)s)")
    p.set_defaults(func=cmd_slice_check)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
