"""Finite oriented cell complexes, integer chains and discrete cochains.

A complex stores, per dimension, an ordered list of named cells with
nonnegative rational measures, plus signed incidence entries describing each
d-cell's boundary in terms of (d-1)-cells. Chains assign coefficients to
cells of one dimension; cochains assign rational values. The fixed insertion
order of cells is the tie-breaking order used everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import DomainError
from .numeric import to_fraction

Coeff = Union[int, Fraction]


@dataclass(frozen=True)
class Cell:
    name: str
    measure: Fraction
    label: Optional[str] = None


def _normalize_coeff(value) -> Coeff:
    if isinstance(value, bool):
        raise DomainError(f"chain coefficient must be numeric, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        f = Fraction(value)
        return int(f) if f.denominator == 1 else f
    raise DomainError(f"chain coefficient must be numeric, got {value!r}")


class Chain:
    """Formal sum of same-dimension cells. Zero coefficients are dropped.

    Coefficients are integers; exact rationals are permitted because flat-norm
    certificates over the reals need them. Consumers that require integrality
    check `is_integer`.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Optional[Mapping[str, Coeff]] = None):
        if dim < -1:
            raise DomainError(f"chain dimension must be >= -1, got {dim}")
        clean: dict[str, Coeff] = {}
        for name, value in (coeffs or {}).items():
            v = _normalize_coeff(value)
            if v != 0:
                clean[name] = v
        if dim == -1 and clean:
            raise DomainError("dimension -1 admits only the zero chain")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Chain is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_integer(self) -> bool:
        return all(isinstance(v, int) for v in self.coeffs.values())

    def get(self, name: str) -> Coeff:
        return self.coeffs.get(name, 0)

    def support(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def items(self) -> Iterator[tuple[str, Coeff]]:
        return iter(sorted(self.coeffs.items()))

    def __add__(self, other: "Chain") -> "Chain":
        self._check_same_dim(other)
        out = dict(self.coeffs)
        for name, v in other.coeffs.items():
            out[name] = out.get(name, 0) + v
        return Chain(max(self.dim, other.dim), out)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __neg__(self) -> "Chain":
        return Chain(self.dim, {k: -v for k, v in self.coeffs.items()})

    def scale(self, k: Coeff) -> "Chain":
        return Chain(self.dim, {name: v * k for name, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.is_zero:
            return hash(("chain", -1))
        return hash(("chain", self.dim, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        body = " + ".join(f"{v}*{k}" for k, v in sorted(self.coeffs.items()))
        return f"Chain({self.dim}: {body or '0'})"

    def key(self, cx: "CellComplex") -> tuple:
        """Coefficient vector in the complex's cell order, for lexicographic ties."""
        return tuple(self.coeffs.get(c.name, 0) for c in cx.cells(self.dim))

    def _check_same_dim(self, other: "Chain") -> None:
        if self.dim != other.dim and not (self.is_zero or other.is_zero):
            raise DomainError(f"dimension mismatch: {self.dim} vs {other.dim}")


class Cochain:
    """Rational-valued function on the cells of one dimension (zero elsewhere)."""

    __slots__ = ("dim", "values")

    def __init__(self, dim: int, values: Optional[Mapping[str, object]] = None):
        if dim < 0:
            raise DomainError(f"cochain dimension must be >= 0, got {dim}")
        clean: dict[str, Fraction] = {}
        for name, value in (values or {}).items():
            v = to_fraction(value)
            if v != 0:
                clean[name] = v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "values", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    def get(self, name: str) -> Fraction:
        return self.values.get(name, Fraction(0))

    def items(self) -> Iterator[tuple[str, Fraction]]:
        return iter(sorted(self.values.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return self.dim == other.dim and self.values == other.values

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.values.items()))
        return f"Cochain({self.dim}: {{{body}}})"


class CellComplex:
    """Finite oriented cell complex with measured cells.

    Cells are added per dimension with unique names; incidence entries carry
    integer signs. The complex does not enforce boundary-of-boundary = 0 at
    construction; `validate` reports violations instead, so defective inputs
    can be loaded and inspected.
    """

    def __init__(self):
        self._cells: dict[int, list[Cell]] = {}
        self._index: dict[int, dict[str, int]] = {}
        self._faces: dict[int, dict[str, dict[str, int]]] = {}

    def add_cell(self, dim: int, name: str, measure, label: Optional[str] = None) -> None:
        if dim < 0:
            raise DomainError(f"cell dimension must be >= 0, got {dim}")
        mu = to_fraction(measure)
        if mu < 0:
            raise DomainError(f"cell {name!r} has negative measure {mu}")
        idx = self._index.setdefault(dim, {})
        if name in idx:
            raise DomainError(f"duplicate cell {name!r} in dimension {dim}")
        idx[name] = len(idx)
        self._cells.setdefault(dim, []).append(Cell(name, mu, label))

    def add_face(self, dim: int, cell: str, face: str, sign: int) -> None:
        """Record that `face` occurs in the boundary of `cell` with `sign`.

        `dim` is the cell's dimension; the face must already exist one
        dimension down. Repeated entries accumulate.
        """
        if dim < 1:
            raise DomainError("face relations require dimension >= 1")
        if not isinstance(sign, int):
            raise DomainError(f"incidence sign must be an integer, got {sign!r}")
        if not self.has_cell(dim, cell):
            raise DomainError(f"unknown {dim}-cell {cell!r}")
        if not self.has_cell(dim - 1, face):
            raise DomainError(f"unknown {dim - 1}-cell {face!r}")
        row = self._faces.setdefault(dim, {}).setdefault(cell, {})
        new = row.get(face, 0) + sign
        if new == 0:
            row.pop(face, None)
        else:
            row[face] = new

    # -- queries ---------------------------------------------------------

    def dims(self) -> list[int]:
        return sorted(self._cells)

    def cells(self, dim: int) -> Sequence[Cell]:
        return tuple(self._cells.get(dim, ()))

    def cell_names(self, dim: int) -> list[str]:
        return [c.name for c in self._cells.get(dim, ())]

    def has_cell(self, dim: int, name: str) -> bool:
        return name in self._index.get(dim, {})

    def cell(self, dim: int, name: str) -> Cell:
        try:
            return self._cells[dim][self._index[dim][name]]
        except KeyError:
            raise DomainError(f"unknown {dim}-cell {name!r}") from None

    def measure(self, dim: int, name: str) -> Fraction:
        return self.cell(dim, name).measure

    def boundary_row(self, dim: int, cell: str) -> dict[str, int]:
        """Signed faces of one d-cell, as a name -> sign mapping."""
        return dict(self._faces.get(dim, {}).get(cell, {}))

    def cofaces(self, dim: int) -> dict[str, list[tuple[str, int]]]:
        """Each (dim-1)-cell -> the dim-cells with it in their boundary, and signs; cell order."""
        out: dict[str, list[tuple[str, int]]] = {name: [] for name in self._index.get(dim - 1, ())}
        rows = self._faces.get(dim, {})
        for cell in self._index.get(dim, ()):  # names in cell order
            for face, sign in rows.get(cell, {}).items():
                out[face].append((cell, sign))
        return out

    def face_entries(self, dim: int) -> Iterator[tuple[str, str, int]]:
        for cell in self.cell_names(dim):
            for face, sign in sorted(self._faces.get(dim, {}).get(cell, {}).items()):
                yield cell, face, sign

    # -- chain helpers ---------------------------------------------------

    def check_chain(self, chain: Chain) -> None:
        for name in chain.coeffs:
            if not self.has_cell(chain.dim, name):
                raise DomainError(f"chain references unknown {chain.dim}-cell {name!r}")

    def check_cochain(self, phi: Cochain) -> None:
        for name in phi.values:
            if not self.has_cell(phi.dim, name):
                raise DomainError(f"cochain references unknown {phi.dim}-cell {name!r}")


def unit_chain(dim: int, name: str) -> Chain:
    return Chain(dim, {name: 1})


def boundary(cx: CellComplex, chain: Chain) -> Chain:
    """Boundary of a chain via the complex's incidence entries.

    The boundary of a 0-chain (or the zero chain of dimension 0 or -1) is the
    zero chain of one dimension lower, floored at -1.
    """
    cx.check_chain(chain)
    if chain.dim <= 0:
        return Chain(-1)
    acc: dict[str, Coeff] = {}
    for name, c in chain.coeffs.items():
        for face, sign in cx.boundary_row(chain.dim, name).items():
            acc[face] = acc.get(face, 0) + c * sign
    return Chain(chain.dim - 1, acc)


def pair(phi: Cochain, chain: Chain) -> Fraction:
    """Evaluate a cochain on a chain: sum of coefficient * value over the support."""
    if chain.is_zero:
        return Fraction(0)
    if phi.dim != chain.dim:
        raise DomainError(f"pairing dimension mismatch: cochain {phi.dim}, chain {chain.dim}")
    total = Fraction(0)
    for name, c in chain.coeffs.items():
        v = phi.values.get(name)
        if v is not None:
            total += Fraction(c) * v
    return total


@dataclass(frozen=True)
class ReportEntry:
    severity: str  # "error" | "warning"
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[ReportEntry, ...]

    @property
    def ok(self) -> bool:
        return not any(e.severity == "error" for e in self.entries)

    def errors(self) -> list[ReportEntry]:
        return [e for e in self.entries if e.severity == "error"]

    def warnings(self) -> list[ReportEntry]:
        return [e for e in self.entries if e.severity == "warning"]


def validate(cx: CellComplex) -> ValidationReport:
    """Structural report: boundary-of-boundary violations, zero measures,
    non-regular (|sign| > 1) incidence entries."""
    entries: list[ReportEntry] = []
    for dim in cx.dims():
        for cell in cx.cells(dim):
            if cell.measure == 0:
                entries.append(ReportEntry(
                    "warning", "zero-measure",
                    f"{dim}-cell {cell.name!r} has measure 0"))
        if dim >= 1:
            for name, face, sign in cx.face_entries(dim):
                if abs(sign) > 1:
                    entries.append(ReportEntry(
                        "warning", "non-regular",
                        f"incidence {name!r} -> {face!r} has sign {sign}"))
        if dim >= 2:
            for name in cx.cell_names(dim):
                dd = boundary(cx, boundary(cx, unit_chain(dim, name)))
                if not dd.is_zero:
                    offenders = ", ".join(f"{k}:{v}" for k, v in dd.items())
                    entries.append(ReportEntry(
                        "error", "boundary-squared",
                        f"boundary of boundary of {name!r} is nonzero ({offenders})"))
    return ValidationReport(tuple(entries))
