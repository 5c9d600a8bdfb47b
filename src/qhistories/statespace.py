"""Labeled finite-dimensional state spaces.

A system is described at each discrete time by a small orthonormal basis of
channel labels (a :class:`TimeSlice`).  Kets, projectors and projective
decompositions of the identity (PDIs) all live on a single slice.
Everything is an immutable value; the arrays inside are read-only.

Inputs are validated where they enter: the public constructors copy and
check every array (shape, finiteness, Hermiticity, idempotence, PDI sums).
Values the library builds from parts it already holds skip that second
pass (`_trusted`): basis kets, label and identity projectors and
`slice_pdi` are exact 0/1 arrays, and a ket renamed or carried back by the
library is already checked.  Kets computed with caller-supplied step
matrices (chain kets, transport results) keep the one check those products
do not imply, the finiteness scan (`_computed_ket`).  Probe branch kets are
rows of a joint state that ran that scan once, over all its amplitudes.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

#: Default absolute tolerance (matrix max-norm) for algebraic invariants.
DEFAULT_TOL = 1e-10


def _frozen_array(data, shape_kind: str) -> np.ndarray:
    arr = np.array(data, dtype=complex)
    if shape_kind == "vector" and arr.ndim != 1:
        raise ValueError(f"expected a 1-d amplitude vector, got shape {arr.shape}")
    if shape_kind == "matrix" and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    _require_finite(arr)
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError("amplitudes must be finite")


def _trusted(cls, **fields):
    """An instance of the frozen value class `cls` with `fields` set as
    given: no copy, no check, no `__post_init__`.  Only for values whose
    invariants the library's own arithmetic already implies; array fields
    still writeable are made read-only in place.
    """
    for value in fields.values():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _computed_ket(slc: TimeSlice, amps: np.ndarray) -> Ket:
    """A ket of complex amplitudes computed by the library on `slc`, so of
    the right length and dtype.  Keeps only the finiteness scan: a product
    with a non-unitary step matrix can overflow."""
    _require_finite(amps)
    return _trusted(Ket, slice=slc, amplitudes=amps, name="")


@dataclass(frozen=True)
class TimeSlice:
    """An ordered orthonormal basis of channel labels at one time index."""

    time_index: int
    basis: tuple[str, ...]

    def __post_init__(self):
        if self.time_index < 0:
            raise ValueError(f"time_index must be >= 0, got {self.time_index}")
        if not self.basis:
            raise ValueError("slice basis must be non-empty")
        if any(not lab for lab in self.basis):
            raise ValueError("channel labels must be non-empty strings")
        if len(set(self.basis)) != len(self.basis):
            raise ValueError(f"channel labels must be distinct, got {self.basis}")
        object.__setattr__(self, "basis", tuple(self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def axis(self, label: str) -> int:
        """Basis position of `label`; rejects labels foreign to this slice."""
        try:
            return self.basis.index(label)
        except ValueError:
            raise ValueError(
                f"unknown channel {label!r} on slice t{self.time_index} "
                f"with basis {self.basis}"
            ) from None

    def __str__(self) -> str:
        return f"t{self.time_index}{{{','.join(self.basis)}}}"


@dataclass(frozen=True, eq=False)
class Ket:
    """A vector of complex amplitudes over one slice's basis.

    Normalization is not required: sub-normalized kets arise naturally from
    projecting along a history.
    """

    slice: TimeSlice
    amplitudes: np.ndarray
    name: str = ""

    def __post_init__(self):
        arr = _frozen_array(self.amplitudes, "vector")
        if arr.shape[0] != self.slice.dim:
            raise ValueError(
                f"amplitude count {arr.shape[0]} does not match slice {self.slice}"
            )
        object.__setattr__(self, "amplitudes", arr)

    def __reduce__(self):
        # Through the checked constructor, so a copy's array is read-only.
        return type(self), (self.slice, self.amplitudes, self.name)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.slice.axis(label)])


def basis_ket(slc: TimeSlice, label: str, name: str | None = None) -> Ket:
    """Unit ket concentrated in a single channel."""
    amps = np.zeros(slc.dim, dtype=complex)
    amps[slc.axis(label)] = 1.0
    name = name if name is not None else f"{label}{slc.time_index}"
    return _trusted(Ket, slice=slc, amplitudes=amps, name=name)


def inner(a: Ket, b: Ket) -> complex:
    """Inner product <a|b>; both kets must live on the same slice."""
    if a.slice != b.slice:
        raise ValueError(f"kets live on different slices {a.slice} and {b.slice}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


@dataclass(frozen=True, eq=False)
class Projector:
    """A Hermitian idempotent square matrix over one slice's basis; the raw
    matrix is kept so that non-diagonal projectors (e.g. onto an evolved
    pure state) are first-class.

    `name` is display metadata only and never enters any computation.
    """

    slice: TimeSlice
    matrix: np.ndarray
    name: str = ""
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float = DEFAULT_TOL):
        m = _frozen_array(self.matrix, "matrix")
        if m.shape[0] != self.slice.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match slice {self.slice}"
            )
        object.__setattr__(self, "matrix", m)
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > tol:
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3g})")
        idem = float(np.max(np.abs(m @ m - m)))
        if idem > tol:
            raise ValueError(f"matrix is not idempotent (residual {idem:.3g})")

    def __reduce__(self):
        # Through the checked constructor, so a copy's matrix is read-only;
        # its algebra passed when built, perhaps at a looser `tol`.
        return type(self), (self.slice, self.matrix, self.name, np.inf)

    def apply(self, k: Ket) -> Ket:
        if k.slice != self.slice:
            raise ValueError(
                f"operator on {self.slice} cannot act on ket at {k.slice}"
            )
        return Ket(self.slice, self.matrix @ k.amplitudes)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def complement(self, name: str | None = None) -> Projector:
        """The projector I - P onto the orthogonal complement.  Fully
        validated: P may have been accepted with a looser `tol`."""
        ident = np.eye(self.slice.dim, dtype=complex)
        if name is None:
            name = _complement_name(self)
        return Projector(self.slice, ident - self.matrix, name)


def _complement_name(p: Projector) -> str:
    diag = np.diagonal(p.matrix)
    off = p.matrix - np.diag(diag)
    is_01_diag = np.max(np.abs(off)) == 0.0 and all(
        abs(d) < 1e-14 or abs(d - 1) < 1e-14 for d in diag
    )
    if is_01_diag:
        labels = [lab for lab, d in zip(p.slice.basis, diag) if abs(d - 1) < 1e-14]
        rest = [lab for lab in p.slice.basis if lab not in labels]
        if rest:
            return "+".join(f"{lab}{p.slice.time_index}" for lab in rest)
        return f"0@t{p.slice.time_index}"
    return f"~{p.name}" if p.name else ""


def identity_projector(slc: TimeSlice) -> Projector:
    m = np.eye(slc.dim, dtype=complex)
    return _trusted(Projector, slice=slc, matrix=m, name=f"I{slc.time_index}")


def projector_from_labels(
    slc: TimeSlice, labels: Iterable[str], name: str | None = None
) -> Projector:
    """Diagonal projector onto the span of the given channel labels."""
    axes = sorted(slc.axis(lab) for lab in set(labels))
    if not axes:
        raise ValueError("label set must be non-empty")
    m = np.zeros((slc.dim, slc.dim), dtype=complex)
    for ax in axes:
        m[ax, ax] = 1.0
    if name is None:
        name = "+".join(f"{slc.basis[ax]}{slc.time_index}" for ax in axes)
    return _trusted(Projector, slice=slc, matrix=m, name=name)


def projector_from_ket(k: Ket, name: str | None = None) -> Projector:
    """Rank-one projector k k^dagger / |k|^2 onto the ray of a nonzero ket.
    A ket whose |k|^2 overflows is first scaled by its largest component."""
    amps = k.amplitudes
    n2 = float(np.vdot(amps, amps).real)
    if np.isinf(n2):
        amps = amps / np.abs(amps.view(float)).max()
        n2 = float(np.vdot(amps, amps).real)
    if n2 <= DEFAULT_TOL**2:
        raise ValueError("cannot project onto a zero ket")
    m = np.outer(amps, amps.conj()) / n2
    if name is None:
        name = f"[{k.name}]" if k.name else ""
    return Projector(k.slice, m, name)


@dataclass(frozen=True)
class PDIReport:
    """Outcome of validating a candidate projective decomposition."""

    ok: bool
    max_residual: float
    worst: str = ""


def pdi_validate(parts: Sequence[Projector], tol: float = DEFAULT_TOL) -> PDIReport:
    """Check that `parts` are mutually orthogonal and sum to the identity.

    Returns a report rather than raising, so that near-miss decompositions can
    be inspected; mixing slices is a hard error.
    """
    if not parts:
        raise ValueError("a decomposition needs at least one part")
    slc = parts[0].slice
    for p in parts[1:]:
        if p.slice != slc:
            raise ValueError(
                f"parts live on mixed slices: {slc} vs {p.slice}"
            )
    worst = ""
    max_res = 0.0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            res = float(np.max(np.abs(parts[i].matrix @ parts[j].matrix)))
            if res > max_res:
                max_res = res
                worst = f"parts {i} and {j} are not orthogonal (residual {res:.3g})"
    total = sum(p.matrix for p in parts)
    comp = np.abs(total - np.eye(slc.dim))
    res = float(np.max(comp))
    if res > max_res:
        ij = np.unravel_index(int(np.argmax(comp)), comp.shape)
        lab = slc.basis[ij[0]] if ij[0] == ij[1] else f"{ij}"
        max_res = res
        worst = f"sum differs from identity at {lab} (residual {res:.3g})"
    ok = max_res <= tol
    return PDIReport(ok, max_res, "" if ok else worst)


@dataclass(frozen=True, eq=False)
class PDI:
    """A validated projective decomposition of the identity on one slice."""

    slice: TimeSlice
    parts: tuple[Projector, ...]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float = DEFAULT_TOL):
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(p.slice != self.slice for p in self.parts):
            raise ValueError("all parts must live on the PDI's slice")
        report = pdi_validate(self.parts, tol)
        if not report.ok:
            raise ValueError(f"not a projective decomposition: {report.worst}")

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def slice_pdi(slc: TimeSlice) -> PDI:
    """The finest diagonal decomposition: one projector per channel."""
    parts = tuple(projector_from_labels(slc, {lab}) for lab in slc.basis)
    return _trusted(PDI, slice=slc, parts=parts)
