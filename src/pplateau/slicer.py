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
keyed by (seed, stream, round): each resampling round draws the directions of
all its pending samples as one batch, then their levels as another (for
2-chains a (k, n, 2) normal block, then a (k, 2) uniform block). The
geometry runs in chunks of bounded size, and chunking never changes a draw,
so results depend only on the seed and sample count, never on any worker
decomposition or chunk size. The 1-chain kernel works simplex-major, on
(s, k) arrays, so its reductions over the s simplices run across contiguous
k-long rows; its einsum projection and its weighted sum over a contiguous
(k, s) transpose keep every sample bit-identical to the sample-major layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .complexes import CellComplex, Chain
from .errors import DegenerateSliceError, DomainError
from .functionals import Integrand
from .numeric import to_fraction

Point = tuple[Fraction, ...]
EPS = 1e-12
# Largest (sample, simplex) pair count whose geometry the sampler holds at once.
_CHUNK_PAIRS = 1 << 16


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
    The crossing rules are those of `_crossings`, run on a batch of one; the
    first degenerate simplex in chain order names the error.
    """
    m, n = p.dim, p.ambient
    if m == 0:
        raise DomainError("cannot slice a 0-chain")
    pr = _check_projection(proj, n, m)
    y = np.asarray(level, dtype=float).reshape(m)
    if p.is_zero:
        return ZeroCurrent(n, ())
    verts = _vertex_array(p)
    x = _crossings((verts @ pr.T)[None], y[None])
    bad = np.flatnonzero(x.tangent[0] | x.facet[0])
    if bad.size:
        if x.tangent[0, bad[0]]:
            raise DegenerateSliceError("slice plane tangent to a simplex")
        raise DegenerateSliceError("slice plane hits a simplex facet")
    points = []
    for i in np.flatnonzero(x.inside[0]):
        base = verts[i, 0]
        pt = base + (verts[i, 1:] - base).T @ x.lam[0, i]
        points.append((tuple(float(c) for c in pt),
                       p.simplices[i][1] * (1 if x.det[0, i] > 0 else -1)))
    return ZeroCurrent(n, tuple(points))


class _Crossing(NamedTuple):
    """Per-(sample, simplex) outcome of `_crossings`; every field is (k, s, ...)."""

    det: np.ndarray      # determinant of the projected edge matrix; its sign orients
    lam: np.ndarray      # barycentric coordinates of the crossing, vertices 1..m
    inside: np.ndarray   # transversal crossing strictly inside the simplex
    facet: np.ndarray    # transversal, but on or within EPS of a facet
    tangent: np.ndarray  # tangent plane that meets the simplex's affine hull


def _crossings(pv: np.ndarray, y: np.ndarray) -> _Crossing:
    """The transversality rules, for k levels against s projected m-simplices.

    `pv` (k, s, m+1, m) holds every simplex's vertices under each sample's
    projection and `y` (k, m) each sample's level. A simplex whose projected
    edge matrix has |det| <= EPS times its column-norm product is tangent; it
    is degenerate only if the level lies on its projected affine hull (the
    rank test), otherwise it is a clean miss. A transversal simplex is crossed
    inside when all m+1 barycentric coordinates exceed EPS, and on a facet
    when none is below -EPS but some is not above EPS.
    """
    m = pv.shape[-1]
    a = (pv[:, :, 1:, :] - pv[:, :, :1, :]).swapaxes(-1, -2)   # (k, s, m, m)
    rhs = y[:, None, :] - pv[:, :, 0, :]                          # (k, s, m)
    det = _det(a)
    scale = np.prod(np.linalg.norm(a, axis=-2), axis=-1)
    scale[scale == 0] = 1.0
    flat = np.abs(det) <= EPS * scale
    tangent = np.zeros_like(flat)
    if flat.any():
        # Singular systems: consistent exactly when appending rhs keeps the rank.
        af, rf = a[flat], rhs[flat]
        aug = np.concatenate([af, rf[..., None]], axis=-1)
        tangent[flat] = (np.linalg.matrix_rank(aug, tol=1e-9)
                         == np.linalg.matrix_rank(af, tol=1e-9))
        a = a.copy()
        a[flat] = np.eye(m)
    lam = _solve(a, rhs)
    coords = np.concatenate([lam, 1.0 - lam.sum(axis=-1, keepdims=True)], axis=-1)
    inside = ~flat & (coords > EPS).all(axis=-1)
    facet = ~flat & ~inside & (coords > -EPS).all(axis=-1)
    return _Crossing(det, lam, inside, facet, tangent)


# Stacked 2 x 2 systems, the sampler's case, take closed forms (Cramer's rule):
# batched LAPACK costs about 20 times more per system at that size.

def _det(a: np.ndarray) -> np.ndarray:
    if a.shape[-1] == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)


def _solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with a x = rhs for stacked nonsingular a (..., m, m) and rhs (..., m)."""
    if a.shape[-1] == 2:
        x = np.stack([a[..., 1, 1] * rhs[..., 0] - a[..., 0, 1] * rhs[..., 1],
                      a[..., 0, 0] * rhs[..., 1] - a[..., 1, 0] * rhs[..., 0]], axis=-1)
        return x / _det(a)[..., None]
    return np.linalg.solve(a, rhs[..., None])[..., 0]


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


def _vertex_array(p: PolyhedralChain) -> np.ndarray:
    """Float vertex coordinates of every simplex: (simplices, dim + 1, ambient)."""
    return np.array([[[float(c) for c in v] for v in s] for s, _ in p.simplices], dtype=float)


def _line_values(dirs: np.ndarray, u: np.ndarray, verts: np.ndarray,
                 hw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-chains: raw values and degenerate flags for unit directions `dirs` (k, n).

    A level within a relative 1e-9 of a projected endpoint, or an empty box
    (a zero direction gives one), is degenerate. Work arrays are (s, k) and
    reuse two buffers; the einsum projection (BLAS `@` rounds differently) and
    the sum over a contiguous (k, s) transpose (numpy's pairwise order) keep
    every sample bit-identical to the sample-major layout.
    """
    a = np.einsum("sn,kn->sk", verts[:, 0, :], dirs)
    b = np.einsum("sn,kn->sk", verts[:, 1, :], dirs)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b, out=a)
    blo = lo.min(axis=0)
    vol = hi.max(axis=0) - blo
    y = blo + u * vol
    margin = 1e-9 * np.maximum(1.0, np.abs(y))
    inside = y > np.add(lo, margin, out=b)
    inside &= y < np.subtract(hi, margin, out=b)
    near = np.abs(np.subtract(y, lo, out=lo), out=lo) <= margin
    near |= np.abs(np.subtract(y, hi, out=hi), out=hi) <= margin
    degenerate = (vol <= 1e-12) | near.any(axis=0)
    weighted = np.multiply(inside.T, hw, out=b.reshape(b.shape[::-1]))
    return vol * weighted.sum(axis=1), degenerate


def _plane_values(frames: np.ndarray, u: np.ndarray, verts: np.ndarray,
                  hw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2-chains: raw values and degenerate flags for projections `frames` (k, m, n).

    A sample is degenerate when any simplex has a facet or tangent hit.
    """
    k, m, n = frames.shape
    # One product projects every vertex under every frame: row = vertex, column
    # = (sample, axis), so the box is a reduction over contiguous rows.
    proj = verts.reshape(-1, n) @ frames.reshape(k * m, n).T
    lo = proj.min(axis=0).reshape(k, m)
    hi = proj.max(axis=0).reshape(k, m)
    pv = proj.reshape(len(verts), m + 1, k, m).transpose(2, 0, 1, 3)
    y = lo + u * (hi - lo)
    x = _crossings(pv, y)
    degenerate = (x.facet | x.tangent).any(axis=1)
    return np.prod(hi - lo, axis=1) * (x.inside * hw[None, :]).sum(axis=1), degenerate


def _raw_samples(p: PolyhedralChain, h: Integrand, samples: int, seed: int,
                 stream: int) -> tuple[np.ndarray, int]:
    """Per-sample raw values boxvol * slice weighted mass; degenerates resampled.

    Each resampling round draws all of its directions, then all of its levels,
    from the Philox stream keyed by (seed, stream, round). The geometry then
    runs in chunks of at most _CHUNK_PAIRS (sample, simplex) pairs, so the
    chunking bounds memory without changing any output. 1-chains keep their
    own endpoint-margin test (`_line_values`); 2-chains go through the
    crossing kernel `_crossings` that `slice_chain` also uses
    (`_plane_values`). A degenerate sample is drawn again in the next round.
    """
    m, n = p.dim, p.ambient
    verts = _vertex_array(p)
    hw = np.array([float(h(abs(w))) for _, w in p.simplices], dtype=float)
    chunk = max(1, _CHUNK_PAIRS // len(p.simplices))
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
            # numpy's pairwise sum is sequential below 8 terms only: there a running
            # column sum is np.linalg.norm bit for bit, without its per-row reduce.
            norms = (np.sqrt(sum(g[:, j] * g[:, j] for j in range(n))) if n < 8
                     else np.linalg.norm(g, axis=1))
            u = rng.random(k)
            frames = g / np.maximum(norms, 1e-300)[:, None]
            frames[norms <= 1e-9] = 0.0
            values = _line_values
        else:
            g = rng.standard_normal((k, n, m))
            frames = np.linalg.qr(g)[0].swapaxes(1, 2)
            u = rng.random((k, m))
            values = _plane_values
        vals = np.empty(k, dtype=float)
        degenerate = np.empty(k, dtype=bool)
        for lo in range(0, k, chunk):
            part = slice(lo, lo + chunk)
            vals[part], degenerate[part] = values(frames[part], u[part], verts, hw)
        ok = ~degenerate
        out[pending[ok]] = vals[ok]
        pending = pending[degenerate]
        resampled += int(degenerate.sum())
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
    if p.dim not in (1, 2):
        raise DomainError(f"Monte-Carlo mass needs a 1- or 2-chain, got a {p.dim}-chain")
    raw, resampled = _raw_samples(p, h, samples, seed, stream=0)
    ref = _unit_cube_chain(p.dim, p.ambient)
    cal_raw, _ = _raw_samples(ref, Integrand.identity(), samples, seed, stream=1)
    calibration = float(cal_raw.mean())
    if calibration <= 0:
        raise DomainError("calibration produced a nonpositive constant")
    mean = float(raw.mean())
    sem = float(raw.std(ddof=1)) / math.sqrt(samples)
    return McEstimate(mean / calibration, sem / calibration, calibration, samples, resampled)
