"""Embedded polyhedral chains: slicing, cones, and Monte-Carlo weighted mass.

Chains here are formal integer combinations of oriented simplices with
rational vertex coordinates (floats are absorbed exactly). Slicing intersects
an m-chain with the preimage of a point under a row-orthonormal projection to
R^m; transversal crossings yield weighted points whose sign is the
orientation of the projection restricted to the simplex tangent. Hitting a
facet or a tangent plane is degenerate and raised, never silently guessed.

The cone over a chain from an apex prepends the apex to every simplex, which
makes boundary(cone(Z)) + cone(boundary(Z)) = Z hold on the nose (degenerate
joins are kept; they carry no volume). Cone mass is bounded by the
apex's largest distance to the chain times the chain's mass.

The Monte-Carlo estimator averages box-volume-weighted slice masses over
Haar-random m-planes and levels uniform over the projected box, and divides
by beta_1(n, m) = Gamma((m+1)/2) Gamma((n-m+1)/2) / (Gamma((n+1)/2) Gamma(1/2)),
the mean of that average for a chain of mass 1 (Federer, Geometric Measure Theory,
2.10.15 and 3.2.26). The estimate is unbiased, and its standard error is its
whole error. Samples come from counter-based Philox streams and run in
bounded chunks, so results depend only on the seed and sample count
(`_raw_samples`). The 1-chain kernel projects and margin-tests each distinct
vertex once and finds crossings per simplex from those tests; every sample is
bit-identical to projecting each simplex's endpoints per sample
(`_line_values`).
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
# Largest (sample, row) pair count whose geometry the sampler holds at once; a
# row is a simplex, or for 1-chains a vertex or a simplex, whichever are more.
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
    """Integer combination of oriented m-simplices embedded in R^n.

    Each simplex is stored once: repeats merge into their net weight, in the
    vertex order first listed, and simplices whose weights cancel are dropped.
    """

    __slots__ = ("dim", "ambient", "simplices")

    def __init__(self, dim: int, ambient: int,
                 simplices: Sequence[tuple[Sequence[Sequence], int]] = ()):
        if dim < 0 or ambient < 1 or dim > ambient:
            raise DomainError(f"bad dimensions: simplices of dim {dim} in R^{ambient}")
        merged: dict[tuple[Point, ...], list] = {}
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
            key, sign = _canonical(vt)
            if key in merged:  # add in the orientation first listed
                merged[key][1] += sign * merged[key][2] * weight
            else:
                merged[key] = [vt, weight, sign]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "simplices", tuple((v, w) for v, w, _ in merged.values() if w))

    def __setattr__(self, name, value):
        raise AttributeError("PolyhedralChain is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.simplices

    def canonical(self) -> dict[tuple[Point, ...], int]:
        out: dict[tuple[Point, ...], int] = {}
        for verts, w in self.simplices:
            cv, sign = _canonical(verts)
            out[cv] = sign * w
        return out

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
    return sum(abs(w) * simplex_volume(v) for v, w in p.canonical().items())


def poly_h_mass(p: PolyhedralChain, h: Integrand) -> float:
    return sum(float(h(abs(w))) * simplex_volume(v) for v, w in p.canonical().items())


def poly_boundary(p: PolyhedralChain) -> PolyhedralChain:
    """Alternating-sign facet sum; the constructor merges shared facets."""
    if p.dim == 0:
        return PolyhedralChain(0, p.ambient)
    return PolyhedralChain(p.dim - 1, p.ambient, [
        (verts[:i] + verts[i + 1:], (-1) ** i * w)
        for verts, w in p.simplices for i in range(len(verts))])


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


def _check_level(level, m: int) -> np.ndarray:
    try:
        y = np.asarray(level, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"level must be {m} numbers, got {level!r}") from None
    if y.size != m:
        raise DomainError(f"level must be {m} numbers, got {y.size}")
    if not np.isfinite(y).all():
        raise DomainError(f"level must be finite, got {level!r}")
    return y.reshape(m)


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
    y = _check_level(level, m)
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
    """`estimate` with its standard error `stderr`. `calibration` is the divisor
    beta_1(n, m), or 1.0 for the zero chain, which is not sampled."""

    estimate: float
    stderr: float
    calibration: float
    samples: int
    resampled: int


def _crofton_beta(n: int, m: int) -> float:
    """beta_1(n, m) = Gamma((m+1)/2) Gamma((n-m+1)/2) / (Gamma((n+1)/2) Gamma(1/2)).

    The mean factor by which a Haar-random orthogonal projection of R^n onto
    R^m scales m-volume. Gamma(k/2) is rational, times sqrt(pi) for odd k;
    those factors cancel except for n even and m odd, which leaves 1/pi.
    """
    def gamma_half(k):  # Gamma(k/2) without its sqrt(pi)
        return math.prod((Fraction(j, 2) for j in range(k - 2, 0, -2)), start=Fraction(1))
    ratio = float(gamma_half(m + 1) * gamma_half(n - m + 1) / gamma_half(n + 1))
    return ratio / math.pi if n % 2 == 0 and m % 2 == 1 else ratio


def _vertex_array(p: PolyhedralChain) -> np.ndarray:
    """Float vertex coordinates of every simplex: (simplices, dim + 1, ambient)."""
    return np.array([[[float(c) for c in v] for v in s] for s, _ in p.simplices], dtype=float)


def _vertex_table(p: PolyhedralChain) -> tuple[np.ndarray, np.ndarray]:
    """Float coordinates of `p.vertices()` (V, ambient) and, for each simplex,
    the indices of its vertices in that table (simplices, dim + 1)."""
    verts = p.vertices()
    index = {v: i for i, v in enumerate(verts)}
    points = np.array([[float(c) for c in v] for v in verts], dtype=float)
    ends = np.array([[index[v] for v in s] for s, _ in p.simplices], dtype=np.intp)
    return points, ends


def _line_values(dirs: np.ndarray, u: np.ndarray, points: np.ndarray, ends: np.ndarray,
                 hw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-chains: raw values and degenerate flags for unit directions `dirs` (k, n).

    `points` (V, n) are the distinct vertices and `ends` (s, 2) each simplex's
    vertex indices. A level within a relative 1e-9 of a projected vertex, or an
    empty box (a zero direction gives one), is degenerate. Each vertex is
    projected and tested against the level once, in (V, k) arrays: the level is
    clear above it (y > p + margin) or clear below it (y < p - margin). A
    simplex is crossed when the level is clear above one end and clear below
    the other, which is lo + margin < y < hi - margin to the bit. Every sample
    is bit-identical to the sample-major layout.
    """
    # einsum, not BLAS `@` or a running sum over coordinates: both round some
    # entries differently (numpy 2.4's einsum sums n = 3 products as (p0 + p2) + p1).
    proj = np.einsum("vn,kn->vk", points, dirs)
    blo = proj.min(axis=0)
    vol = proj.max(axis=0) - blo
    y = blo + u * vol
    margin = 1e-9 * np.maximum(1.0, np.abs(y))
    buf = np.add(proj, margin)
    above = y > buf
    below = y < np.subtract(proj, margin, out=buf)
    near = np.abs(np.subtract(y, proj, out=buf), out=buf) <= margin
    degenerate = (vol <= 1e-12) | near.any(axis=0)
    a, b = ends.T
    inside = (above[a] & below[b]) | (above[b] & below[a])
    return vol * _row_sum(np.multiply(inside, hw[:, None])), degenerate


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum (s, k) over its s rows as np.add.reduce sums each row of the transpose.

    That is numpy's pairwise order, starting from 0: sequential below 8 terms,
    eight interleaved accumulators up to 128, and halves cut at a multiple of 8
    above. Starting from 0 makes a sum of -0.0 terms 0.0.
    """
    if len(rows) < 8:
        total = np.zeros(rows.shape[1])
        for row in rows:
            total += row
        return total
    return _pairwise(rows) + 0.0


def _pairwise(rows: np.ndarray) -> np.ndarray:
    s = len(rows)
    if s > 128:
        half = s // 2 - s // 2 % 8
        return _pairwise(rows[:half]) + _pairwise(rows[half:])
    acc = rows[:8].copy()
    tail = s - s % 8
    for i in range(8, tail, 8):
        acc += rows[i:i + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for row in rows[tail:]:
        total += row
    return total


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
    runs in chunks of at most _CHUNK_PAIRS (sample, row) pairs, so the chunking
    bounds memory without changing any output. 1-chains keep their own
    vertex-margin test on the vertex table (`_line_values`), whose rows are
    vertices and simplices; 2-chains go through the crossing kernel
    `_crossings` that `slice_chain` also uses (`_plane_values`), whose rows
    are simplices. A degenerate sample is drawn again in the next round.
    """
    m, n = p.dim, p.ambient
    hw = np.array([float(h(abs(w))) for _, w in p.simplices], dtype=float)
    if m == 1:
        points, ends = _vertex_table(p)
        geometry = (points, ends, hw)
        rows = max(len(points), len(ends))
    else:
        geometry = (_vertex_array(p), hw)
        rows = len(hw)
    chunk = max(1, _CHUNK_PAIRS // rows)
    out = np.empty(samples, dtype=float)
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
        # Round 0 draws every sample, so it writes straight into `out`; its
        # degenerate entries are pending and a later round overwrites them.
        vals = out if round_no == 0 else np.empty(k, dtype=float)
        degenerate = np.empty(k, dtype=bool)
        for lo in range(0, k, chunk):
            part = slice(lo, lo + chunk)
            vals[part], degenerate[part] = values(frames[part], u[part], *geometry)
        if round_no:
            ok = ~degenerate
            out[pending[ok]] = vals[ok]
        pending = pending[degenerate]
        resampled += int(degenerate.sum())
        round_no += 1
    return out, resampled


def mc_h_mass(p: PolyhedralChain, h: Integrand, samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the weighted mass via random slices.

    Over Haar-random m-planes and levels uniform over the projected box, the
    raw value (box volume times slice weighted mass) has mean beta_1(n, m)
    times the weighted mass. The raw sample mean and its standard error, both
    divided by beta_1, are an unbiased estimate and its whole standard error.
    Reproducible from (seed, samples) alone.
    """
    if type(samples) is not int or type(seed) is not int:  # bool is not accepted
        raise DomainError(f"samples and seed must be integers, got {samples!r} and {seed!r}")
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if p.is_zero:
        return McEstimate(0.0, 0.0, 1.0, samples, 0)
    if p.dim not in (1, 2):
        raise DomainError(f"Monte-Carlo mass needs a 1- or 2-chain, got a {p.dim}-chain")
    raw, resampled = _raw_samples(p, h, samples, seed, stream=0)
    beta = _crofton_beta(p.ambient, p.dim)
    sem = float(raw.std(ddof=1)) / math.sqrt(samples)
    return McEstimate(float(raw.mean()) / beta, sem / beta, beta, samples, resampled)
