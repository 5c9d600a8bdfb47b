"""Labeled finite-dimensional state spaces.

A system is described at each discrete time by a small orthonormal basis of
channel labels (a :class:`TimeSlice`).  Kets, projectors and projective
decompositions of the identity (PDIs) all live on a single slice.
Everything is an immutable value; the arrays inside are read-only.

Inputs are validated where they enter: the public constructors copy every
array through one intake, `_frozen_array` (exact shape, every amplitude
finite and at most `_AMPLITUDE_BOUND` in modulus), then check their own
invariants (Hermiticity, idempotence, PDI sums, and in `dynamics` the
unitarity of a step).  Values the library builds from parts it already
holds skip that second pass (`_trusted`): basis kets, label and identity
projectors and `slice_pdi` are exact 0/1 arrays, and kets computed by the
library (chain kets, transport results, probe branches) are products of
accepted kets with unitary steps, projectors and probe rotations, which
keep a norm (to within `DEFAULT_TOL`).  So no product is scanned after the
fact.  A computed amplitude may lie past the bound by up to a factor
sqrt(d), since a step mixes d amplitudes; pickle and copy rebuild a
computed `Ket` or joint state as it was computed, not through the intake.

A channel-label projector (exactly a 0/1 diagonal matrix) records its
support, the diagonal as a boolean mask, when it is built: label, identity
and complement projectors from their parts, a checked matrix by one exact
test of its entries.  The consistent-histories bookkeeping (equal,
orthogonal, split, rank) compares projectors on one slice and reads those
masks when every projector involved has one; the answers are the dense
ones, since for 0/1 diagonal matrices every residual is exactly 0 or 1.
Applying an event to amplitudes (`_apply`: chain kets, the decoherence
walk, weak values) multiplies by its mask, with the dense product's bits.
Rays and rotated projectors take the dense path.

The algebraic checks and nearly every verdict compare against one cut-off,
`DEFAULT_TOL`, and no call takes a tolerance of its own.  Two verdicts do
not: `OutcomeDistribution.given_detector` treats a detector as vanishing
only at mass 0.0, and `sample` accepts a distribution whose mass is 1
within an absolute 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

#: The library's absolute cut-off: matrix max-norm for algebraic
#: invariants, and the threshold of every verdict but the two named above.
DEFAULT_TOL = 1e-10

#: The largest modulus of an accepted amplitude.  A ket of d such
#: amplitudes has |k|^2 <= d * 1e200.  A step or projector whose residual
#: is within DEFAULT_TOL in every entry raises a squared norm by at most a
#: factor 1 + d * DEFAULT_TOL (d such entries per row), and a probe rotation
#: keeps it, so after T of them every chain ket, Born weight, D entry (at
#: most |c_i| |c_j|), sum of n weights and outcome cell stays below
#: n * d * 1e200 * exp(T * d * DEFAULT_TOL): no product can overflow for
#: any n * d below 1e100 and T * d below 1e10, far beyond what fits in
#: memory.
_AMPLITUDE_BOUND = 1e100


def _frozen_array(data, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The one intake of a caller's array: a read-only complex copy of
    `data`, which must have exactly `shape` and every entry at most
    `_AMPLITUDE_BOUND` in modulus (so finite: NaN fails the bound too)."""
    arr = np.array(data, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    if not (np.abs(arr) <= _AMPLITUDE_BOUND).all():
        raise ValueError(
            f"amplitudes must be finite and at most {_AMPLITUDE_BOUND:g} in modulus ({what})"
        )
    arr.setflags(write=False)
    return arr


def _reduce(self):
    """`__reduce__` of the value classes that hold a caller's array or a
    derived attribute: pickle and copy rebuild them through the checked
    constructor, so a copy's array is read-only and its derived attributes
    are rebuilt."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _reduce_computed(self):
    """`__reduce__` of `Ket` and `probes.JointState`, which the library
    also computes: pickle and copy rebuild them as `_trusted` builds them,
    array made read-only, since a copy is no new input and a computed
    value may lie past the intake bound."""
    return _rebuild, (type(self), {f.name: getattr(self, f.name) for f in fields(self)})


def _rebuild(cls, values):
    return _trusted(cls, **values)


def _trusted(cls, **values):
    """An instance of the frozen value class `cls` with `values` set as
    given: no copy, no check, no `__post_init__`.  Only for values whose
    invariants the library's own arithmetic already implies; array fields
    still writeable are made read-only in place.
    """
    for value in values.values():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


def _require_slice(x, slc: TimeSlice, what: str) -> TimeSlice:
    """The one slice rule: `x` (a ket, projector or decomposition) must
    live on `slc`, which is returned."""
    if x.slice is not slc and x.slice != slc:
        raise ValueError(f"{what} lives on {x.slice}, not {slc}")
    return slc


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
        # label -> position; not a field, so repr, ==, hash and pickles
        # see the two fields only
        object.__setattr__(self, "_axes", {lab: j for j, lab in enumerate(self.basis)})

    __reduce__ = _reduce

    @property
    def dim(self) -> int:
        return len(self.basis)

    def axis(self, label: str) -> int:
        """Basis position of `label`; rejects labels foreign to this slice."""
        try:
            return self._axes[label]
        except (KeyError, TypeError):
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
        arr = _frozen_array(self.amplitudes, (self.slice.dim,), "ket")
        object.__setattr__(self, "amplitudes", arr)

    __reduce__ = _reduce_computed

    def norm(self) -> float:
        """The 2-norm, as `np.linalg.norm` gives it."""
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.slice.axis(label)])


def basis_ket(slc: TimeSlice, label: str) -> Ket:
    """Unit ket concentrated in a single channel, named like "F4"."""
    amps = np.zeros(slc.dim, dtype=complex)
    amps[slc.axis(label)] = 1.0
    return _trusted(Ket, slice=slc, amplitudes=amps, name=f"{label}{slc.time_index}")


def inner(a: Ket, b: Ket) -> complex:
    """Inner product <a|b>; both kets must live on the same slice."""
    _require_slice(b, a.slice, "ket")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


@dataclass(frozen=True, eq=False)
class Projector:
    """A Hermitian idempotent square matrix over one slice's basis; the raw
    matrix is kept so that non-diagonal projectors (e.g. onto an evolved
    pure state) are first-class.

    `name` is display metadata only and never enters any computation.

    A projector whose matrix is exactly a 0/1 diagonal matrix (a
    channel-label projector) records its support when it is built, after
    the same residual checks as any matrix: `_on`, its diagonal as a
    read-only boolean mask (`_label_mask`).  Any other projector has `_on`
    None.  `_on` is not a field: `repr`, pickling and copies see the same
    three fields, and copies rebuilt through the constructor record the
    same mask.
    """

    slice: TimeSlice
    matrix: np.ndarray
    name: str = ""

    _on = None

    def __post_init__(self):
        d = self.slice.dim
        m = _frozen_array(self.matrix, (d, d), "projector matrix")
        object.__setattr__(self, "matrix", m)
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > DEFAULT_TOL:
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3g})")
        idem = float(np.max(np.abs(m @ m - m)))
        if idem > DEFAULT_TOL:
            raise ValueError(f"matrix is not idempotent (residual {idem:.3g})")
        on = _label_mask(m)
        if on is not None:
            on.setflags(write=False)
            object.__setattr__(self, "_on", on)

    __reduce__ = _reduce

    def complement(self) -> Projector:
        """The projector I - P onto the orthogonal complement.  A label
        projector's complement is the label projector of the other channels;
        any other is checked at `DEFAULT_TOL` like a caller's projector."""
        name = _complement_name(self)
        if self._on is None:
            return Projector(self.slice, np.eye(self.slice.dim, dtype=complex) - self.matrix, name)
        on = ~self._on
        return _trusted(Projector, slice=self.slice, matrix=_label_matrix(on), name=name, _on=on)


def _label_mask(m: np.ndarray) -> np.ndarray | None:
    """The diagonal of the square matrix `m` as a boolean mask if `m` is
    exactly a 0/1 diagonal matrix (a channel-label projector); None
    otherwise.  Exact: no entry is compared to a cut-off."""
    on = m.diagonal() == 1
    return on if np.count_nonzero(m) == np.count_nonzero(on) else None


def _label_matrix(on: np.ndarray) -> np.ndarray:
    """The 0/1 diagonal matrix with the boolean diagonal `on`: I - P for a
    label projector P, bit for bit, and every zero +0."""
    m = np.zeros((len(on), len(on)), dtype=complex)
    m.flat[:: len(on) + 1] = on
    return m


def _apply(p: Projector, v: np.ndarray) -> np.ndarray:
    """`p.matrix @ v`, bit for bit.  A label projector multiplies by its
    support instead: x * 1 = x and x + 0 = x for nonzero x, and the `+ 0.0`
    turns a dropped channel's -0 into the product's +0.  A non-finite
    amplitude stays non-finite (inf * 0 = NaN), but its NaN no longer
    spreads to every component as in the product."""
    if p._on is None:
        return p.matrix @ v
    return v * p._on + 0.0


def _distance(a: Projector, b: Projector) -> float:
    """Max-norm of a - b, for two projectors on one slice.  For two label
    projectors it is exactly 0 or 1, read from their recorded supports."""
    if a._on is None or b._on is None:
        return float(np.max(np.abs(a.matrix - b.matrix)))
    return float((a._on != b._on).any())


def _overlap(a: Projector, b: Projector) -> float:
    """Max-norm of the product a b, for two projectors on one slice.  For
    two label projectors it is exactly 0 or 1: whether their supports meet."""
    if a._on is None or b._on is None:
        return float(np.max(np.abs(a.matrix @ b.matrix)))
    return float((a._on & b._on).any())


def _complement_name(p: Projector) -> str:
    if p._on is None:
        return f"~{p.name}" if p.name else ""
    t = str(p.slice.time_index)
    rest = [lab + t for lab, kept in zip(p.slice.basis, p._on.tolist()) if not kept]
    return "+".join(rest) if rest else f"0@t{t}"


def identity_projector(slc: TimeSlice) -> Projector:
    m = np.eye(slc.dim, dtype=complex)
    on = np.ones(slc.dim, dtype=bool)
    return _trusted(Projector, slice=slc, matrix=m, name=f"I{slc.time_index}", _on=on)


def projector_from_labels(
    slc: TimeSlice, labels: Iterable[str], name: str | None = None
) -> Projector:
    """Diagonal projector onto the span of the given channel labels."""
    axes = sorted(slc.axis(lab) for lab in set(labels))
    if not axes:
        raise ValueError("label set must be non-empty")
    on = np.zeros(slc.dim, dtype=bool)
    on[axes] = True
    if name is None:
        name = "+".join(f"{slc.basis[ax]}{slc.time_index}" for ax in axes)
    return _trusted(Projector, slice=slc, matrix=_label_matrix(on), name=name, _on=on)


def projector_from_ket(k: Ket, name: str | None = None) -> Projector:
    """Rank-one projector k k^dagger / |k|^2 onto the ray of a nonzero ket."""
    amps = k.amplitudes
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


def pdi_validate(parts: Sequence[Projector]) -> PDIReport:
    """Check that `parts` are mutually orthogonal and sum to the identity,
    each residual within `DEFAULT_TOL`.

    Returns a report rather than raising, so that near-miss decompositions can
    be inspected; mixing slices is a hard error.
    """
    if not parts:
        raise ValueError("a decomposition needs at least one part")
    slc = parts[0].slice
    for p in parts[1:]:
        _require_slice(p, slc, "part")
    worst = ""
    max_res = 0.0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            res = _overlap(parts[i], parts[j])
            if res > max_res:
                max_res = res
                worst = f"parts {i} and {j} are not orthogonal (residual {res:.3g})"
    comp = np.abs(sum(p.matrix for p in parts) - np.eye(slc.dim))
    res = float(np.max(comp))
    if res > max_res:
        ij = np.unravel_index(int(np.argmax(comp)), comp.shape)
        lab = slc.basis[ij[0]] if ij[0] == ij[1] else f"{ij}"
        max_res = res
        worst = f"sum differs from identity at {lab} (residual {res:.3g})"
    ok = max_res <= DEFAULT_TOL
    return PDIReport(ok, max_res, "" if ok else worst)


@dataclass(frozen=True, eq=False)
class PDI:
    """A validated projective decomposition of the identity on one slice."""

    slice: TimeSlice
    parts: tuple[Projector, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            _require_slice(p, self.slice, "part")
        report = pdi_validate(self.parts)
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
