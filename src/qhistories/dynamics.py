"""Step unitaries between consecutive time slices and composed transports.

A :class:`Dynamics` is a chain of slices t0, t1, ... with one unitary per
step.  Kets are moved forward by left-multiplying step matrices and backward
by the adjoints, so a bra never needs its own representation: conjugation
happens at inner-product time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statespace import (
    Ket, TimeSlice, _frozen_array, _negligible, _reduce_held, _require_slice, _trusted,
)


def _require_unitary(u: np.ndarray, slices: Sequence[TimeSlice]) -> None:
    """Reject the step matrices stacked in `u`, shape (T, d, d), where
    `u[j]` joins `slices[j]` to `slices[j + 1]`, unless each one's residual
    max |U^dagger U - I| is a negligible residual; the error names the first
    worst step by its slices, and its residual.  One pass over the stack:
    `StepUnitary` checks a stack of one, `mzi` its four literal steps."""
    gram = u.conj().transpose(0, 2, 1) @ u
    residuals = np.abs(gram - np.eye(u.shape[-1])).max(axis=(1, 2))
    worst = int(np.argmax(residuals))
    if not _negligible(residuals[worst], "residual"):
        raise ValueError(
            f"step from {slices[worst]} to {slices[worst + 1]} is not unitary "
            f"(residual {residuals[worst]:.3g})"
        )


@dataclass(frozen=True, eq=False)
class StepUnitary:
    """One time step.  Rows are indexed by the target basis, columns by the
    source basis.  The matrix must be unitary: a residual
    max |U^dagger U - I| past the residual cut is rejected at construction,
    and the error names the step and its residual.
    """

    from_slice: TimeSlice
    to_slice: TimeSlice
    matrix: np.ndarray

    def __post_init__(self):
        shape = (self.to_slice.dim, self.from_slice.dim)
        if shape[0] != shape[1]:
            raise ValueError(
                f"step from {self.from_slice} to {self.to_slice} joins slices "
                "of different dimension"
            )
        m = _frozen_array(self.matrix, shape, "step matrix")
        _require_unitary(m[None], (self.from_slice, self.to_slice))
        object.__setattr__(self, "matrix", m)

    __reduce__ = _reduce_held


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


def _require_on(dyn: Dynamics, k: Ket) -> None:
    """Reject a ket whose slice is not the slice of `dyn` at its time."""
    _require_slice(k, dyn.slice_at(k.slice.time_index), "ket")


def transport(dyn: Dynamics, k: Ket, target_index: int) -> Ket:
    """Move a ket to `target_index`, forward through the step unitaries or
    backward through their adjoints.  Norm is preserved either way.
    """
    _require_on(dyn, k)
    slc = dyn.slice_at(target_index)
    amps = _carry(dyn, k.amplitudes, k.slice.time_index, target_index)
    return _trusted(Ket, slice=slc, amplitudes=amps, name="")


def _carry(dyn: Dynamics, v: np.ndarray, start: int, target_index: int) -> np.ndarray:
    """The step loop of :func:`transport` on raw amplitudes; both indices
    must already be valid for `dyn`.  The steps are unitary, so it keeps
    every norm to within the residual cut."""
    if target_index >= start:
        for j in range(start, target_index):
            v = dyn.steps[j].matrix @ v
    else:
        for j in range(start - 1, target_index - 1, -1):
            v = dyn.steps[j].matrix.conj().T @ v
    return v

