"""Embedded polyhedral chains: slicing, cones, and Monte-Carlo weighted mass.

Chains here are formal integer combinations of oriented simplices with
rational vertex coordinates (floats are absorbed exactly). Slicing intersects
an m-chain with the preimage of a point under a row-orthonormal projection to
R^m; transversal crossings yield weighted points whose sign is the
orientation of the projection restricted to the simplex tangent. Hitting a
facet or a tangent plane is degenerate and raised, never silently guessed.

The cone over a chain from an apex prepends the apex to every simplex, which
makes boundary(cone(Z)) + cone(boundary(Z)) = Z hold on the nose (degenerate
simplices are dropped; they carry no volume). Cone mass is bounded by the
apex's largest distance to the chain times the chain's mass.

The Monte-Carlo estimator averages box-volume-weighted slice masses over
random projections and levels, then divides by the same pipeline's average on
a reference unit cube, which empirically cancels the direction-integral
normalization constant. Randomness is drawn from counter-based Philox streams
keyed by (seed, round) in a fixed per-sample layout, so results depend only
on the seed and sample count, never on any worker decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .complexes import CellComplex, Chain
from .errors import DegenerateSliceError, DomainError
from .functionals import Integrand
from .numeric import to_fraction

Point = tuple[Fraction, ...]
EPS = 1e-12


def _canonical(verts: tuple[Point, ...]) -> tuple[tuple[Point, ...], int]:
    """Sort vertices, returning the permutation parity as a sign."""
    order = sorted(range(len(verts)), key=lambda i: verts[i])
    sign = 1
    seen = list(order)
    # Parity by counting transpositions of the sorting permutation.
    for i in range(len(seen)):
        while seen[i] != i:
            j = seen[i]
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
    return tuple(verts[i] for i in order), sign


def _affinely_degenerate(verts: tuple[Point, ...]) -> bool:
    """Exact rank test: do the vertices fail to span a (len-1)-plane?"""
    base = verts[0]
    rows = [[v[i] - base[i] for i in range(len(base))] for v in verts[1:]]
    rank = 0
    ncols = len(base)
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank < len(verts) - 1


class PolyhedralChain:
    """Integer combination of oriented m-simplices embedded in R^n."""

    __slots__ = ("dim", "ambient", "simplices")

    def __init__(self, dim: int, ambient: int,
                 simplices: Sequence[tuple[Sequence[Sequence], int]] = ()):
        if dim < 0 or ambient < 1 or dim > ambient:
            raise DomainError(f"bad dimensions: simplices of dim {dim} in R^{ambient}")
        clean = []
        for verts, weight in simplices:
            if not isinstance(weight, int) or isinstance(weight, bool):
                raise DomainError("simplex weights must be integers")
            if weight == 0:
                continue
            vt = tuple(tuple(to_fraction(c) for c in v) for v in verts)
            if len(vt) != dim + 1:
                raise DomainError(f"a {dim}-simplex needs {dim + 1} vertices, got {len(vt)}")
            if any(len(v) != ambient for v in vt):
                raise DomainError("vertex coordinate count does not match the ambient dimension")
            clean.append((vt, weight))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "simplices", tuple(clean))

    def __setattr__(self, name, value):
        raise AttributeError("PolyhedralChain is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.simplices

    def canonical(self) -> dict[tuple[Point, ...], int]:
        acc: dict[tuple[Point, ...], int] = {}
        for verts, w in self.simplices:
            cv, sign = _canonical(verts)
            acc[cv] = acc.get(cv, 0) + sign * w
        return {k: v for k, v in acc.items() if v != 0}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyhedralChain):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return (self.dim, self.ambient) == (other.dim, other.ambient) \
            and self.canonical() == other.canonical()

    def __add__(self, other: "PolyhedralChain") -> "PolyhedralChain":
        if not isinstance(other, PolyhedralChain):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if (self.dim, self.ambient) != (other.dim, other.ambient):
            raise DomainError("cannot add chains of different dimension or ambient space")
        return PolyhedralChain(self.dim, self.ambient,
                               tuple(self.simplices) + tuple(other.simplices))

    def __neg__(self) -> "PolyhedralChain":
        return PolyhedralChain(self.dim, self.ambient,
                               tuple((v, -w) for v, w in self.simplices))

    def __sub__(self, other: "PolyhedralChain") -> "PolyhedralChain":
        if not isinstance(other, PolyhedralChain):
            return NotImplemented
        return self + (-other)

    def __repr__(self) -> str:
        return f"PolyhedralChain(dim={self.dim}, ambient={self.ambient}, {len(self.simplices)} simplices)"

    def vertices(self) -> list[Point]:
        out = []
        seen = set()
        for verts, _ in self.simplices:
            for v in verts:
                if v not in seen:
                    seen.add(v)
                    out.append(v)
        return out


def simplex_volume(verts: Sequence[Point]) -> float:
    """Unsigned d-volume via the Gram determinant."""
    base = verts[0]
    diffs = np.array([[float(c - b) for c, b in zip(v, base)] for v in verts[1:]], dtype=float)
    if diffs.size == 0:
        return 1.0  # a point has counting measure 1
    gram = diffs @ diffs.T
    det = float(np.linalg.det(gram))
    if det < 0:
        det = 0.0
    d = len(verts) - 1
    return math.sqrt(det) / math.factorial(d)


def poly_mass(p: PolyhedralChain) -> float:
    # canonical() merges repeated simplices first, so multiplicity is the
    # net weight of a simplex and not an accident of the presentation
    return sum(abs(w) * simplex_volume(v) for v, w in p.canonical().items())


def poly_h_mass(p: PolyhedralChain, h: Integrand) -> float:
    return sum(float(h(abs(w))) * simplex_volume(v) for v, w in p.canonical().items())


def poly_boundary(p: PolyhedralChain) -> PolyhedralChain:
    """Alternating-sign facet sum, merged over shared facets."""
    if p.dim == 0:
        return PolyhedralChain(0, p.ambient)
    acc: dict[tuple[Point, ...], int] = {}
    for verts, w in p.simplices:
        for i in range(len(verts)):
            facet = verts[:i] + verts[i + 1:]
            cv, sign = _canonical(facet)
            acc[cv] = acc.get(cv, 0) + ((-1) ** i) * sign * w
    simplices = [(k, v) for k, v in sorted(acc.items()) if v != 0]
    return PolyhedralChain(p.dim - 1, p.ambient, simplices)


def cone(p: PolyhedralChain, apex: Sequence) -> PolyhedralChain:
    """Join every simplex to the apex.

    The apex goes first in each new simplex, which is the orientation that
    makes boundary(cone(Z)) = Z - cone(boundary(Z)). Joins degenerate with
    the apex are kept: they carry zero volume, so no mass, but their facets
    are exactly what the identity above needs to hold for every apex,
    including one collinear with a simplex.
    """
    v = tuple(to_fraction(c) for c in apex)
    if len(v) != p.ambient:
        raise DomainError("apex coordinate count does not match the ambient dimension")
    if p.dim + 1 > p.ambient:
        raise DomainError("cone would exceed the ambient dimension")
    out = [((v,) + verts, w) for verts, w in p.simplices]
    return PolyhedralChain(p.dim + 1, p.ambient, out)


def cone_mass_bound(p: PolyhedralChain, apex: Sequence) -> float:
    """rho * mass(p), with rho the apex's largest distance to p's vertices."""
    v = [float(to_fraction(c)) for c in apex]
    rho = 0.0
    for pt in p.vertices():
        rho = max(rho, math.dist(v, [float(c) for c in pt]))
    return rho * poly_mass(p)


@dataclass(frozen=True)
class ZeroCurrent:
    """Weighted points produced by slicing."""

    ambient: int
    points: tuple[tuple[tuple[float, ...], int], ...]

    def total_weight(self) -> int:
        return sum(w for _, w in self.points)

    def mass(self) -> float:
        return float(sum(abs(w) for _, w in self.points))

    def h_mass(self, h: Integrand) -> float:
        return float(sum(float(h(abs(w))) for _, w in self.points))


def _check_projection(proj: np.ndarray, n: int, m: int) -> np.ndarray:
    proj = np.asarray(proj, dtype=float)
    if proj.shape != (m, n):
        raise DomainError(f"projection must be {m}x{n}, got {proj.shape}")
    gram = proj @ proj.T
    if not np.allclose(gram, np.eye(m), atol=1e-9):
        raise DomainError("projection rows must be orthonormal")
    return proj


def slice_chain(p: PolyhedralChain, proj, level) -> ZeroCurrent:
    """Transversal slice of an m-chain by the preimage of `level` under `proj`.

    Raises DegenerateSliceError when the preimage is tangent to a simplex or
    meets one on a facet; callers resample instead of trusting the output.
    """
    m, n = p.dim, p.ambient
    if m == 0:
        raise DomainError("cannot slice a 0-chain")
    pr = _check_projection(proj, n, m)
    y = np.asarray(level, dtype=float).reshape(m)
    points = []
    for verts, w in p.simplices:
        vv = np.array([[float(c) for c in v] for v in verts], dtype=float)
        base = vv[0]
        edges = (vv[1:] - base).T           # n x m
        a = pr @ edges                      # m x m
        rhs = y - pr @ base
        det = float(np.linalg.det(a))
        scale = float(np.prod(np.linalg.norm(a, axis=0))) or 1.0
        if abs(det) <= EPS * scale:
            # Tangent plane: degenerate only if the plane actually meets the
            # simplex; a parallel miss is a clean empty slice.
            if _tangent_hits(a, rhs):
                raise DegenerateSliceError("slice plane tangent to a simplex")
            continue
        lam = np.linalg.solve(a, rhs)
        lam0 = 1.0 - float(lam.sum())
        coords = [float(v) for v in lam] + [lam0]
        if all(c > EPS for c in coords):
            pt = base + edges @ lam
            points.append((tuple(float(c) for c in pt), w * (1 if det > 0 else -1)))
        elif all(c > -EPS for c in coords):
            raise DegenerateSliceError("slice plane hits a simplex facet")
    return ZeroCurrent(n, tuple(points))


def _tangent_hits(a: np.ndarray, rhs: np.ndarray) -> bool:
    """Is a singular system A x = rhs consistent (plane meets the affine hull)?"""
    aug = np.concatenate([a, rhs.reshape(-1, 1)], axis=1)
    return np.linalg.matrix_rank(aug, tol=1e-9) == np.linalg.matrix_rank(a, tol=1e-9)


# -- converters ------------------------------------------------------------


def embed_chain(cx: CellComplex, chain: Chain, coords: dict[str, Sequence]) -> PolyhedralChain:
    """Embed a 1- or 2-chain of a complex using vertex coordinates.

    Edges must have exactly one +1 head and one -1 tail; each 2-cell's edge
    cycle is walked into a polygon and fan-triangulated. The ambient dimension
    is taken from the coordinates.
    """
    if not chain.is_integer:
        raise DomainError("only integer chains embed")
    cx.check_chain(chain)
    pts = {name: tuple(to_fraction(c) for c in xy) for name, xy in coords.items()}
    ambient = len(next(iter(pts.values()), ()))
    if ambient == 0:
        raise DomainError("no coordinates supplied")
    if any(len(v) != ambient for v in pts.values()):
        raise DomainError("inconsistent coordinate dimensions")

    def endpoints(edge: str) -> tuple[str, str]:
        row = cx.boundary_row(1, edge)
        heads = [v for v, s in row.items() if s == 1]
        tails = [v for v, s in row.items() if s == -1]
        if len(heads) != 1 or len(tails) != 1 or len(row) != 2:
            raise DomainError(f"edge {edge!r} is not a segment (needs one +1 and one -1 vertex)")
        return tails[0], heads[0]

    simplices: list[tuple[tuple, int]] = []
    if chain.dim == 1:
        for name, c in chain.items():
            tail, head = endpoints(name)
            if tail not in pts or head not in pts:
                raise DomainError(f"missing coordinates for edge {name!r}")
            simplices.append(((pts[tail], pts[head]), c))
        return PolyhedralChain(1, ambient, simplices)
    if chain.dim != 2:
        raise DomainError("only 1- and 2-chains embed")

    for name, c in chain.items():
        row = cx.boundary_row(2, name)
        directed = {}
        for edge, sign in row.items():
            if abs(sign) != 1:
                raise DomainError(f"2-cell {name!r} has a non-regular edge {edge!r}")
            tail, head = endpoints(edge)
            start, end = (tail, head) if sign == 1 else (head, tail)
            if start in directed:
                raise DomainError(f"2-cell {name!r} boundary is not a simple cycle")
            directed[start] = end
        if not directed:
            raise DomainError(f"2-cell {name!r} has no boundary to embed")
        first = min(directed)
        loop = [first]
        while True:
            nxt = directed.get(loop[-1])
            if nxt is None:
                raise DomainError(f"2-cell {name!r} boundary is not a closed cycle")
            if nxt == first:
                break
            if nxt in loop:
                raise DomainError(f"2-cell {name!r} boundary is not a simple cycle")
            loop.append(nxt)
        if len(loop) != len(directed):
            raise DomainError(f"2-cell {name!r} boundary has disconnected pieces")
        if any(v not in pts for v in loop):
            raise DomainError(f"missing coordinates for 2-cell {name!r}")
        for i in range(1, len(loop) - 1):
            tri = (pts[loop[0]], pts[loop[i]], pts[loop[i + 1]])
            if not _affinely_degenerate(tri):
                simplices.append((tri, c))
    return PolyhedralChain(2, ambient, simplices)


# -- Monte-Carlo weighted mass ----------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    calibration: float
    samples: int
    resampled: int


def _unit_cube_chain(m: int, n: int) -> PolyhedralChain:
    """Reference chain of mass exactly 1: a triangulated unit m-cube in R^n."""
    if m == 1:
        zero = tuple(Fraction(0) for _ in range(n))
        one = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))
        return PolyhedralChain(1, n, [((zero, one), 1)])
    if m == 2:
        def pt(x, y):
            return tuple([Fraction(x), Fraction(y)] + [Fraction(0)] * (n - 2))
        a, b, c, d = pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)
        return PolyhedralChain(2, n, [((a, b, c), 1), ((a, c, d), 1)])
    raise DomainError("reference cubes implemented for dimensions 1 and 2")


def _raw_samples(p: PolyhedralChain, h: Integrand, samples: int, seed: int,
                 stream: int) -> tuple[np.ndarray, int]:
    """Per-sample raw values boxvol * slice weighted mass; degenerates resampled."""
    m, n = p.dim, p.ambient
    verts = np.array([[[float(c) for c in v] for v in s] for s, _ in p.simplices], dtype=float)
    weights = [abs(w) for _, w in p.simplices]
    hw = np.array([float(h(w)) for w in weights], dtype=float)
    out = np.full(samples, np.nan, dtype=float)
    pending = np.arange(samples)
    resampled = 0
    round_no = 0
    while pending.size:
        if round_no > 64:
            raise DegenerateSliceError("resampling failed to find transversal slices")
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            entropy=(seed, stream, round_no))))
        k = pending.size
        if m == 1:
            g = rng.standard_normal((k, n))
            norms = np.linalg.norm(g, axis=1)
            u = rng.random(k)
            good_dir = norms > 1e-9
            dirs = np.where(good_dir[:, None], g / np.maximum(norms, 1e-300)[:, None], 0.0)
            # Projections of every simplex endpoint: (k, simplices, 2)
            a = np.einsum("kn,sn->ks", dirs, verts[:, 0, :])
            b = np.einsum("kn,sn->ks", dirs, verts[:, 1, :])
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            blo = lo.min(axis=1)
            bhi = hi.max(axis=1)
            vol = bhi - blo
            y = blo + u * vol
            margin = 1e-9 * np.maximum(1.0, np.abs(y))[:, None]
            inside = (y[:, None] > lo + margin) & (y[:, None] < hi - margin)
            near = ((np.abs(y[:, None] - lo) <= margin) | (np.abs(y[:, None] - hi) <= margin))
            degenerate = ~good_dir | (vol <= 1e-12) | near.any(axis=1)
            vals = vol * (inside * hw[None, :]).sum(axis=1)
            ok = ~degenerate
            out[pending[ok]] = vals[ok]
            pending = pending[~ok]
            resampled += int(degenerate.sum())
        else:
            done = []
            for idx, i in enumerate(pending):
                g = rng.standard_normal((n, m))
                q, _ = np.linalg.qr(g)
                pr = q[:, :m].T
                pv = np.einsum("mn,svn->svm", pr, verts)
                lo = pv.reshape(-1, m).min(axis=0)
                hi = pv.reshape(-1, m).max(axis=0)
                vol = float(np.prod(hi - lo))
                y = lo + rng.random(m) * (hi - lo)
                try:
                    zc = slice_chain(p, pr, y)
                except DegenerateSliceError:
                    resampled += 1
                    continue
                out[i] = vol * zc.h_mass(h)
                done.append(idx)
            pending = np.delete(pending, done)
        round_no += 1
    return out, resampled


def mc_h_mass(p: PolyhedralChain, h: Integrand, samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the weighted mass via random slices.

    The raw average estimates a direction-integral multiple of the weighted
    mass; dividing by the same pipeline's average over a unit reference cube
    (identity cost, mass exactly 1) cancels the multiple. Reproducible from
    (seed, samples) alone.
    """
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if p.is_zero:
        return McEstimate(0.0, 0.0, 1.0, samples, 0)
    raw, resampled = _raw_samples(p, h, samples, seed, stream=0)
    ref = _unit_cube_chain(p.dim, p.ambient)
    cal_raw, _ = _raw_samples(ref, Integrand.identity(), samples, seed, stream=1)
    calibration = float(cal_raw.mean())
    if calibration <= 0:
        raise DomainError("calibration produced a nonpositive constant")
    mean = float(raw.mean())
    sem = float(raw.std(ddof=1)) / math.sqrt(samples)
    return McEstimate(mean / calibration, sem / calibration, calibration, samples, resampled)
