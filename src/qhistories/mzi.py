"""The built-in nested interferometer model and its named history families.

Five three-channel slices joined by four beam-splitter steps.  The inner
loop (channels B and C between the second and third splitters) is tuned so
that anything entering it through D leaves through H, for every splitting
ratio.  A variant without the last two splitters routes beams straight
through instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import Dynamics, StepUnitary, step_validate
from .histories import Family, History
from .statespace import (
    Ket, TimeSlice, _trusted, basis_ket, projector_from_labels, projector_from_ket,
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


def _step(
    frm: TimeSlice, to: TimeSlice, columns: dict[str, dict[str, float]]
) -> StepUnitary:
    """The step whose column `src` sends amplitude `amp` to each `dst`.
    Built trusted: the closed-form entries are finite and the shape is the
    slices'; unitarity is left to `step_validate`."""
    m = np.zeros((to.dim, frm.dim), dtype=complex)
    for src, images in columns.items():
        for dst, amp in images.items():
            m[to.axis(dst), frm.axis(src)] = amp
    return _trusted(StepUnitary, from_slice=frm, to_slice=to, matrix=m)


def _build(p: BeamSplitterParams, to_t3: dict, to_t4: dict) -> Dynamics:
    """The source splitter and the inner-loop entry, then the given steps
    into slices 3 and 4 (columns as in `_step`)."""
    a, b = p.alpha, p.beta
    t0, t1, t2, t3, t4 = time_slices()
    steps = (
        _step(t0, t1, {"S": {"A": a, "D": b}, "R": {"A": -b, "D": a}, "Q": {"Q": 1}}),
        _step(t1, t2, {"A": {"A": 1}, "D": {"B": R, "C": R}, "Q": {"B": R, "C": -R}}),
        _step(t2, t3, to_t3),
        _step(t3, t4, to_t4),
    )
    dyn = Dynamics((t0, t1, t2, t3, t4), steps)
    report = step_validate(dyn)
    if not report.ok:
        raise AssertionError(f"construction produced a non-unitary step: {report}")
    return dyn


def build_nested_mzi(p: BeamSplitterParams) -> Dynamics:
    """The full model: four splitter steps over the five slices."""
    a, b = p.alpha, p.beta
    return _build(
        p,
        {"A": {"A": 1}, "B": {"E": -R, "H": R}, "C": {"E": R, "H": R}},
        {"A": {"F": a, "G": b}, "E": {"F": b, "G": -a}, "H": {"H": 1}},
    )


def build_no_bs34(p: BeamSplitterParams) -> Dynamics:
    """Variant with the last two splitters removed: beams continue straight
    through their crossing points (B->H, C->E, then A->G, E->F), following
    the layout geometry.  The first two steps are unchanged.
    """
    return _build(
        p,
        {"A": {"A": 1}, "B": {"H": 1}, "C": {"E": 1}},
        {"A": {"G": 1}, "E": {"F": 1}, "H": {"H": 1}},
    )


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


def named_family(fid: NamedFamilyId, p: BeamSplitterParams) -> tuple[Dynamics, Family]:
    """Construct one of the built-in families together with its dynamics.

    EQ8_FULL, EQ12_DETECTORS and EQ26_NO_BS34 are complete; the rest are
    subfamilies conditioned on arrival in F.
    """
    if not isinstance(fid, NamedFamilyId):
        raise ValueError(f"unknown family id {fid!r}")
    dyn = build_no_bs34(p) if fid is NamedFamilyId.EQ26_NO_BS34 else build_nested_mzi(p)
    return dyn, _family(dyn, fid)


def _family(dyn: Dynamics, fid: NamedFamilyId) -> Family:
    """The family `fid` over a model already built for it (`build_no_bs34`
    for EQ26_NO_BS34, `build_nested_mzi` for the rest)."""
    if fid is NamedFamilyId.EQ25_BACKWARD:
        # The ray at t2 that evolves into F4, and its complement.
        f4 = projector_from_labels(dyn.slices[4], "F")
        back = projector_from_ket(backward_state(dyn, basis_ket(dyn.slices[4], "F"), 2))
        histories = tuple(History(((2, e), (4, f4))) for e in (back, back.complement()))
    else:
        # rows of label projectors on the model's own slices, at increasing times
        proj = functools.cache(lambda t, ch: projector_from_labels(dyn.slices[t], ch))
        histories = tuple(
            _trusted(History, events=tuple((t, proj(t, ch)) for t, ch in row))
            for row in _EVENTS[fid]
        )
    return Family(source_ket(dyn), histories, complete=fid in _COMPLETE)
