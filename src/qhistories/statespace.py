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
holds skip that second pass (`_trusted`): basis kets are exact 0/1
arrays, label and identity projectors and `slice_pdi` exact 0/1 masks
(below), and kets computed by the library (chain kets, transport results,
probe branches) are products of accepted kets with unitary steps,
projectors and probe rotations, which keep a norm (to within
`DEFAULT_TOL`).  So no product is scanned after the fact.  A computed
amplitude may lie past the bound by up to a factor sqrt(d), since a step
mixes d amplitudes.  Pickle and copy rebuild a value from what it holds,
not through the intake (`_reduce_held`): a copy is no new input.

Only this module reads a projector's format.  A channel-label projector
(exactly a 0/1 diagonal matrix) records its support `_on`, a boolean mask,
when it is built; the ones the library builds hold nothing else, and their
`matrix` is built from the mask on each read.  Any other projector holds
its d x d `matrix`.  The private helpers below (`_apply`, `_apply_each`,
`_norms2`, `_sum`, `_rank`, `_distance`, `_overlap`) answer from the masks
when every projector involved has one, with the dense answers' bits: for
0/1 diagonal matrices every residual is exactly 0 or 1.

Every thresholded verdict takes one rule, `_negligible`: a value at or
below the cut of its kind in `_CUTS` is negligible, and no call takes a
tolerance of its own.  A matrix residual, probability, amplitude (a
modulus or norm) or weak value (its distance from 0 or 1) is cut at
`DEFAULT_TOL`; three named quantities have cuts of their own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: The library's absolute cut-off: the cut of every kind of quantity in
#: `_CUTS` but the three named ones.
DEFAULT_TOL = 1e-10

#: The cut of each kind of quantity a verdict judges (`_negligible`).
_CUTS = {
    "residual": DEFAULT_TOL,  # max-norm of a departure from an algebraic identity
    "probability": DEFAULT_TOL,  # a Born weight, a summed mass, an overlap ratio
    "amplitude": DEFAULT_TOL,  # the modulus of an amplitude or inner product, a norm
    "weak value": DEFAULT_TOL,  # the distance of a weak value from 0 or 1
    "ray norm2": DEFAULT_TOL**2,  # `projector_from_ket`'s squared norm
    "detector mass": 0.0,  # `OutcomeDistribution.given_detector`'s marginal
    "mass deviation": 1e-6,  # `sample`'s |total - 1|
}

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


def _negligible(value, kind: str):
    """Whether `value` is at most the cut of `kind` in `_CUTS`; elementwise
    on an array.  The one comparison of every thresholded verdict."""
    return value <= _CUTS[kind]


def _reduce_held(self):
    """`__reduce__` of the value classes that hold an array or a derived
    attribute: pickle and copy rebuild the instance's own attributes as
    `_trusted` builds them, arrays made read-only, since a copy is no new
    input and a computed value may lie past the intake bound."""
    return _rebuild, (type(self), vars(self))


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
        try:
            object.__setattr__(self, "time_index", operator.index(self.time_index))
        except TypeError:
            raise ValueError(f"time index {self.time_index!r} is not an integer") from None
        if self.time_index < 0:
            raise ValueError(f"time_index must be >= 0, got {self.time_index}")
        if isinstance(self.basis, str) or not hasattr(self.basis, "__iter__"):
            raise ValueError(f"slice basis {self.basis!r} is not a sequence of channel labels")
        object.__setattr__(self, "basis", tuple(self.basis))
        if not self.basis:
            raise ValueError("slice basis must be non-empty")
        for lab in self.basis:
            if not isinstance(lab, str) or not lab:
                raise ValueError(f"channel label {lab!r} is not a non-empty string")
        if len(set(self.basis)) != len(self.basis):
            raise ValueError(f"channel labels must be distinct, got {self.basis}")
        # label -> position; not a field, so repr, == and hash see the two
        # fields only
        object.__setattr__(self, "_axes", {lab: j for j, lab in enumerate(self.basis)})

    __reduce__ = _reduce_held

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

    __reduce__ = _reduce_held

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


class _LabelMatrix:
    """`Projector.matrix`: the matrix set on the instance (a checked one or
    a ray's), else the 0/1 diagonal matrix of its `_on`, built read-only on
    each read.  No class-level value, so the dataclass field is required."""

    def __get__(self, obj, cls=None):
        if obj is None:
            raise AttributeError("matrix")
        if "matrix" in obj.__dict__:
            return obj.__dict__["matrix"]
        m = _label_matrix(obj._on)
        m.setflags(write=False)
        return m

    def __set__(self, obj, value):
        obj.__dict__["matrix"] = value


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
    None.  `_on` is not a field, so `repr` sees the three fields only.  The
    label projectors the library builds hold `_on` alone, and each read of
    their `matrix` builds it anew (`_LabelMatrix`).  Pickle and copy keep
    what the instance holds: its mask, and its matrix only if it has one.
    """

    slice: TimeSlice
    matrix: np.ndarray = _LabelMatrix()
    name: str = ""

    _on = None

    def __post_init__(self):
        d = self.slice.dim
        m = _frozen_array(self.matrix, (d, d), "projector matrix")
        object.__setattr__(self, "matrix", m)
        herm = float(np.max(np.abs(m - m.conj().T)))
        if not _negligible(herm, "residual"):
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3g})")
        idem = float(np.max(np.abs(m @ m - m)))
        if not _negligible(idem, "residual"):
            raise ValueError(f"matrix is not idempotent (residual {idem:.3g})")
        on = _label_mask(m)
        if on is not None:
            on.setflags(write=False)
            object.__setattr__(self, "_on", on)

    __reduce__ = _reduce_held

    def complement(self) -> Projector:
        """The projector I - P onto the orthogonal complement.  A label
        projector's complement is the label projector of the other channels;
        any other is checked at `DEFAULT_TOL` like a caller's projector."""
        name = _complement_name(self)
        if self._on is None:
            return Projector(self.slice, np.eye(self.slice.dim, dtype=complex) - self.matrix, name)
        return _trusted(Projector, slice=self.slice, name=name, _on=~self._on)


def _label_mask(m: np.ndarray) -> np.ndarray | None:
    """The diagonal of the square matrix `m` as a boolean mask if `m` is
    exactly a 0/1 diagonal matrix (a channel-label projector); None
    otherwise.  Exact: no entry is compared to a cut-off."""
    on = m.diagonal() == 1
    return on if np.count_nonzero(m) == np.count_nonzero(on) else None


def _label_matrix(on: np.ndarray) -> np.ndarray:
    """The 0/1 diagonal matrix with the boolean diagonal `on`, every zero
    +0: the complement of a label projector P has the bits of I - P."""
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


#: The fewest rows one stacked product takes (the carries of `histories._walk`,
#: `_apply_each`).  Below it, lone products cost less: at d = 3 and d = 64, two
#: stacked rows cost more than two lone ones once built and split again.
_STACK = 3


def _apply_each(pairs: Sequence[tuple[int, Projector]], rows) -> list | np.ndarray:
    """`_apply(p, rows[i])` for each (i, p) in `pairs`, bit for bit.  At
    least `_STACK` label projectors take one masked product of the stacked
    rows, the elementwise arithmetic of `_apply`."""
    if len(pairs) < _STACK or any(p._on is None for _, p in pairs):
        return [_apply(p, rows[i]) for i, p in pairs]
    return np.array([rows[i] for i, _ in pairs]) * np.array([p._on for _, p in pairs]) + 0.0


def _norms2(parts: Sequence[Projector], cols: np.ndarray) -> np.ndarray:
    """|p v|^2 of each p in `parts` (a row) and row v of `cols` (a column),
    bit for bit as p's own product and sum give it: each is a sum of d
    contiguous |.|^2 terms, zeroed off a label projector's support (x*0 =
    +0), and a mask product sums at most two nonzero terms in any order."""
    ons = [p._on for p in parts]
    if all(on is not None for on in ons):
        on, sq = np.array(ons, dtype=float), np.abs(cols) ** 2
        if max(on.sum(axis=1).tolist()) <= 2:
            return on @ sq.T
        return np.sum(on[:, None, :] * sq, axis=2)
    # Parts (k, 1, d, d) over one column vector per row (1, n, d, 1).
    prods = np.matmul(np.stack([p.matrix for p in parts])[:, None], cols[None, :, :, None])
    return np.sum(np.abs(prods) ** 2, axis=(2, 3))


def _sum(parts: Sequence[Projector]) -> Projector:
    """The sum of `parts`, pairwise orthogonal projectors on one slice: the
    label projector of the union of their supports when every part has one
    (disjoint 0/1 masks sum to it exactly), else the dense sum."""
    ons = [p._on for p in parts]
    if all(on is not None for on in ons):
        return _trusted(Projector, slice=parts[0].slice, name="", _on=np.logical_or.reduce(ons))
    return _trusted(Projector, slice=parts[0].slice, matrix=sum(p.matrix for p in parts), name="")


def _rank(p: Projector) -> int:
    """The rank of `p`, exact: a label projector's is the count of its
    support, the integer its 0/1 trace gives; any other's is the rounded
    trace, summed in Python (a numpy reduction costs ~5x more per call)."""
    if p._on is None:
        return round(sum(p.matrix.diagonal().real.tolist()))
    return int(np.count_nonzero(p._on))


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
    on = np.full(slc.dim, True)
    return _trusted(Projector, slice=slc, name=f"I{slc.time_index}", _on=on)


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
    return _trusted(Projector, slice=slc, name=name, _on=on)


def projector_from_ket(k: Ket, name: str | None = None) -> Projector:
    """Rank-one projector k k^dagger / |k|^2 onto the ray of a nonzero ket."""
    amps = k.amplitudes
    n2 = float(np.vdot(amps, amps).real)
    if _negligible(n2, "ray norm2"):
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
    if all(p._on is not None for p in parts):
        # Label parts sum to the diagonal matrix that counts the parts
        # holding each channel, 0 elsewhere: the dense residuals, exactly.
        comp = np.abs(np.count_nonzero([p._on for p in parts], axis=0) - 1.0)
        at = slc.basis[int(np.argmax(comp))]
    else:
        comp = np.abs(sum(p.matrix for p in parts) - np.eye(slc.dim))
        ij = np.unravel_index(int(np.argmax(comp)), comp.shape)
        at = slc.basis[ij[0]] if ij[0] == ij[1] else f"{ij}"
    res = float(np.max(comp))
    if res > max_res:
        max_res = res
        worst = f"sum differs from identity at {at} (residual {res:.3g})"
    ok = _negligible(max_res, "residual")
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
