"""The built-in nested interferometer model and its named history families.

Five three-channel slices joined by four beam-splitter steps.  The inner
loop (channels B and C between the second and third splitters) is tuned so
that anything entering it through D leaves through H, for every splitting
ratio.  A variant without the last two splitters routes beams straight
through instead.

What does not depend on the splitting ratio is built once, at import, and
is read-only: the label projector of every non-empty channel set of each
slice (`_label_projector`), the two readout decompositions of the final
slice, and every named family but EQ25_BACKWARD, whose ray depends on the
ratio.  A build writes each variant's steps out as one matrix literal at
the ratio (`_nested_steps`, `_no_bs34_steps`) and still checks the result
(`Dynamics(...)` and `step_validate`); `named_family` hands out the
shared, immutable family.
"""

from __future__ import annotations

import itertools
import math
import types
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .dynamics import Dynamics, StepUnitary, step_validate
from .histories import Family, History
from .statespace import (
    PDI, Ket, Projector, TimeSlice, _trusted, basis_ket, projector_from_labels,
    projector_from_ket, slice_pdi,
)
from .weak import backward_state

#: Balanced-splitter amplitude for the inner loop.
R = 1.0 / math.sqrt(2.0)

SLICE_BASES: tuple[tuple[str, ...], ...] = (
    ("S", "R", "Q"),
    ("A", "D", "Q"),
    ("A", "B", "C"),
    ("A", "E", "H"),
    ("F", "G", "H"),
)


@dataclass(frozen=True)
class BeamSplitterParams:
    """Splitting ratio of the outer splitters: amplitude alpha = sqrt(alpha2)
    for transmission into A, beta = sqrt(1 - alpha2) for the other arm.
    Degenerate ratios are rejected; both amplitudes must be strictly inside
    (0, 1).
    """

    alpha2: float

    def __post_init__(self):
        if not 0.0 < self.alpha2 < 1.0:
            raise ValueError(
                f"alpha2 must satisfy 0 < alpha2 < 1, got {self.alpha2!r} "
                "(both splitter amplitudes must be strictly positive)"
            )

    @property
    def alpha(self) -> float:
        return math.sqrt(self.alpha2)

    @property
    def beta2(self) -> float:
        return 1.0 - self.alpha2

    @property
    def beta(self) -> float:
        return math.sqrt(self.beta2)


#: The five slices; every splitting ratio and both variants share them.
_SLICES = tuple(TimeSlice(j, basis) for j, basis in enumerate(SLICE_BASES))


def time_slices() -> tuple[TimeSlice, ...]:
    return _SLICES


#: Every non-empty channel set of each slice, keyed by (time, labels), as
#: the label projector `projector_from_labels` builds: 7 per slice.
_LABELS = types.MappingProxyType({
    (slc.time_index, frozenset(labels)): projector_from_labels(slc, labels)
    for slc in _SLICES
    for n in range(1, slc.dim + 1)
    for labels in itertools.combinations(slc.basis, n)
})


def _label_projector(t: int, labels: Iterable[str]) -> Projector:
    """The shared label projector onto `labels` (channels of slice `t`)."""
    return _LABELS[t, frozenset(labels)]


#: The readouts of the final slice: one part per detector, and F+G
#: against H from the shared label projectors.
_DETECTORS = slice_pdi(_SLICES[4])
_FG_H = PDI(_SLICES[4], (_label_projector(4, "FG"), _label_projector(4, "H")))


def _nested_steps(a: float, b: float) -> np.ndarray:
    """The four steps of the full model at amplitudes (a, b): in each row
    of three, a target channel's amplitudes from the source channels, both
    in slice-basis order.  Made real first: one cast to complex is quicker
    than converting each entry."""
    return np.array([
        a, -b, 0,   b, a, 0,    0, 0, 1,   # S,R,Q -> A,D,Q: the source splitter
        1, 0, 0,    0, R, R,    0, R, -R,  # A,D,Q -> A,B,C: the inner-loop entry
        1, 0, 0,    0, -R, R,   0, R, R,   # A,B,C -> A,E,H: the inner-loop exit
        a, b, 0,    b, -a, 0,   0, 0, 1,   # A,E,H -> F,G,H: the last splitter
    ], dtype=float).astype(complex).reshape(4, 3, 3)


def _no_bs34_steps(a: float, b: float) -> np.ndarray:
    """The steps of `build_no_bs34`, written like `_nested_steps`."""
    return np.array([
        a, -b, 0,   b, a, 0,    0, 0, 1,   # S,R,Q -> A,D,Q: the source splitter
        1, 0, 0,    0, R, R,    0, R, -R,  # A,D,Q -> A,B,C: the inner-loop entry
        1, 0, 0,    0, 0, 1,    0, 1, 0,   # A,B,C -> A,E,H: B -> H, C -> E
        0, 1, 0,    1, 0, 0,    0, 0, 1,   # A,E,H -> F,G,H: A -> G, E -> F
    ], dtype=float).astype(complex).reshape(4, 3, 3)


def _build(p: BeamSplitterParams, steps: Callable[[float, float], np.ndarray]) -> Dynamics:
    """The model whose steps are `steps` at the ratio `p`, built trusted:
    the entries are finite and the shapes the slices'; unitarity is left to
    `step_validate`."""
    u = steps(p.alpha, p.beta)
    dyn = Dynamics(_SLICES, tuple(
        _trusted(StepUnitary, from_slice=_SLICES[j], to_slice=_SLICES[j + 1], matrix=u[j])
        for j in range(len(u))
    ))
    report = step_validate(dyn)
    if not report.ok:
        raise AssertionError(f"construction produced a non-unitary step: {report}")
    return dyn


def build_nested_mzi(p: BeamSplitterParams) -> Dynamics:
    """The full model: four splitter steps over the five slices."""
    return _build(p, _nested_steps)


def build_no_bs34(p: BeamSplitterParams) -> Dynamics:
    """Variant with the last two splitters removed: beams continue straight
    through their crossing points (B->H, C->E, then A->G, E->F), following
    the layout geometry.  The first two steps are unchanged.
    """
    return _build(p, _no_bs34_steps)


def source_ket(dyn: Dynamics) -> Ket:
    """The standard input: unit amplitude in channel S at time 0."""
    return basis_ket(dyn.slices[0], "S")


class NamedFamilyId(Enum):
    """The built-in history families over the nested model."""

    EQ8_FULL = "EQ8_FULL"
    EQ12_DETECTORS = "EQ12_DETECTORS"
    F_A = "F_A"
    F_A_PRIME = "F_A_PRIME"
    F_B = "F_B"
    F_ABC = "F_ABC"
    F_C = "F_C"
    EQ25_BACKWARD = "EQ25_BACKWARD"
    EQ26_NO_BS34 = "EQ26_NO_BS34"


#: Each family's histories in report order, one row of (time, channels)
#: events per history.  An event projects onto the listed channels of its
#: slice; every channel label is one letter.
_EVENTS = {
    NamedFamilyId.EQ8_FULL: (
        ((2, "A"), (4, "F")), ((2, "BC"), (4, "F")), ((4, "GH"),),
    ),
    NamedFamilyId.EQ12_DETECTORS: (((4, "F"),), ((4, "G"),), ((4, "H"),)),
    NamedFamilyId.F_A: (((2, "A"), (4, "F")), ((2, "BC"), (4, "F"))),
    # F_A refined into single channels at t1 and t3, in `refine` order.
    NamedFamilyId.F_A_PRIME: tuple(
        ((1, x), (2, m), (3, y), (4, "F")) for m in ("A", "BC") for x in "ADQ" for y in "AEH"
    ),
    NamedFamilyId.F_B: (((2, "B"), (4, "F")), ((2, "AC"), (4, "F"))),
    NamedFamilyId.F_ABC: tuple(((2, ch), (4, "F")) for ch in "ABC"),
    NamedFamilyId.F_C: (((2, "C"), (4, "F")), ((2, "AB"), (4, "F"))),
    NamedFamilyId.EQ26_NO_BS34: tuple(((2, m), (4, o)) for m in "ABC" for o in "FGH"),
}

_COMPLETE = {
    NamedFamilyId.EQ8_FULL, NamedFamilyId.EQ12_DETECTORS, NamedFamilyId.EQ26_NO_BS34
}


#: Every named family but EQ25_BACKWARD, over the shared slices from the
#: source ket: their events do not depend on the splitting ratio.
_SHARED = types.MappingProxyType({
    fid: Family(
        basis_ket(_SLICES[0], "S"),
        tuple(
            _trusted(History, events=tuple((t, _label_projector(t, ch)) for t, ch in row))
            for row in rows
        ),
        complete=fid in _COMPLETE,
    )
    for fid, rows in _EVENTS.items()
})


def named_family(fid: NamedFamilyId, p: BeamSplitterParams) -> tuple[Dynamics, Family]:
    """One of the built-in families together with its dynamics.

    EQ8_FULL, EQ12_DETECTORS and EQ26_NO_BS34 are complete; the rest are
    subfamilies conditioned on arrival in F.  Every family but
    EQ25_BACKWARD is one shared, immutable object, the same at every ratio.
    """
    if not isinstance(fid, NamedFamilyId):
        raise ValueError(f"unknown family id {fid!r}")
    dyn = build_no_bs34(p) if fid is NamedFamilyId.EQ26_NO_BS34 else build_nested_mzi(p)
    return dyn, _family(dyn, fid)


def _family(dyn: Dynamics, fid: NamedFamilyId) -> Family:
    """The family `fid` over a model already built for it (`build_no_bs34`
    for EQ26_NO_BS34, `build_nested_mzi` for the rest)."""
    if fid is not NamedFamilyId.EQ25_BACKWARD:
        return _SHARED[fid]
    # The ray at t2 that evolves into F4, and its complement.
    f4 = _label_projector(4, "F")
    back = projector_from_ket(backward_state(dyn, basis_ket(dyn.slices[4], "F"), 2))
    histories = tuple(History(((2, e), (4, f4))) for e in (back, back.complement()))
    return Family(source_ket(dyn), histories)
