"""Step unitaries between consecutive time slices and composed transports.

A :class:`Dynamics` is a chain of slices t0, t1, ... with one unitary per
step.  Kets are moved forward by left-multiplying step matrices and backward
by the adjoints, so a bra never needs its own representation: conjugation
happens at inner-product time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statespace import DEFAULT_TOL, Ket, TimeSlice, _computed_ket, _frozen_array


@dataclass(frozen=True, eq=False)
class StepUnitary:
    """One time step.  Rows are indexed by the target basis, columns by the
    source basis.  Unitarity is an invariant but is checked by
    :func:`step_validate` rather than at construction, so that defective
    steps can be diagnosed by report.
    """

    from_slice: TimeSlice
    to_slice: TimeSlice
    matrix: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.matrix, "matrix")
        if arr.shape != (self.to_slice.dim, self.from_slice.dim):
            raise ValueError(
                f"step matrix shape {arr.shape} does not map "
                f"{self.from_slice} to {self.to_slice}"
            )
        object.__setattr__(self, "matrix", arr)

    def __reduce__(self):
        # Through the checked constructor, so a copy's matrix is read-only.
        return type(self), (self.from_slice, self.to_slice, self.matrix)

    def unitarity_residual(self) -> float:
        u = self.matrix
        return float(np.max(np.abs(u.conj().T @ u - np.eye(self.from_slice.dim))))


@dataclass(frozen=True, eq=False)
class Dynamics:
    """An ordered sequence of slices joined by step unitaries.

    Slice time indices must run 0, 1, 2, ... so that a time index doubles as
    a position in the chain.
    """

    slices: tuple[TimeSlice, ...]
    steps: tuple[StepUnitary, ...]

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))
        object.__setattr__(self, "steps", tuple(self.steps))
        if len(self.steps) < 1:
            raise ValueError("dynamics needs at least one step")
        if len(self.slices) != len(self.steps) + 1:
            raise ValueError(
                f"{len(self.slices)} slices cannot be joined by "
                f"{len(self.steps)} steps"
            )
        for j, slc in enumerate(self.slices):
            if slc.time_index != j:
                raise ValueError(
                    f"slice at position {j} carries time index {slc.time_index}"
                )
        for j, st in enumerate(self.steps):
            if st.from_slice != self.slices[j] or st.to_slice != self.slices[j + 1]:
                raise ValueError(f"step {j} does not join slices {j} and {j + 1}")

    @property
    def final_index(self) -> int:
        return len(self.slices) - 1

    def slice_at(self, t: int) -> TimeSlice:
        if not 0 <= t < len(self.slices):
            raise ValueError(
                f"time index {t} outside range 0..{self.final_index}"
            )
        return self.slices[t]


def transport(dyn: Dynamics, k: Ket, target_index: int) -> Ket:
    """Move a ket to `target_index`, forward through the step unitaries or
    backward through their adjoints.  Norm is preserved either way.
    """
    start = k.slice.time_index
    if k.slice != dyn.slice_at(start):
        raise ValueError(f"ket slice {k.slice} does not belong to this dynamics")
    dyn.slice_at(target_index)
    amps = _carry(dyn, k.amplitudes, start, target_index)
    return _computed_ket(dyn.slices[target_index], amps)


def _carry(dyn: Dynamics, v: np.ndarray, start: int, target_index: int) -> np.ndarray:
    """The step loop of :func:`transport` on raw amplitudes; both indices
    must already be valid for `dyn`."""
    if target_index >= start:
        for j in range(start, target_index):
            v = dyn.steps[j].matrix @ v
    else:
        for j in range(start - 1, target_index - 1, -1):
            v = dyn.steps[j].matrix.conj().T @ v
    return v


@dataclass(frozen=True)
class StepReport:
    """Per-step unitarity residuals; `ok` iff all are within tolerance."""

    ok: bool
    max_residual: float
    worst_step: int
    residuals: tuple[float, ...]


def step_validate(dyn: Dynamics, tol: float = DEFAULT_TOL) -> StepReport:
    residuals = tuple(st.unitarity_residual() for st in dyn.steps)
    worst = int(np.argmax(residuals))
    return StepReport(max(residuals) <= tol, max(residuals), worst, residuals)
