"""Two-state-vector quantities: backward states, weak values, and the
presence comparison between the weak-value reading and history inference.

A pre- and post-selected run is described by the forward-evolved ket and the
backward-evolved post-selection ket at a common intermediate time.  Weak
values are reported as bare complex numbers; no interpretation is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .dynamics import Dynamics, transport
from .histories import VanishingProbabilityError
from .statespace import (
    DEFAULT_TOL, Ket, Projector, _apply, _require_slice, _trusted, inner,
)


@dataclass(frozen=True, eq=False)
class TwoStateVector:
    """Forward ket and backward ket on the same slice.  The backward ket is
    the vector whose conjugate acts as the bra; with real dynamics the
    distinction is invisible.
    """

    forward: Ket
    backward: Ket

    def __post_init__(self):
        _require_slice(self.backward, self.forward.slice, "backward ket")

    def overlap(self) -> complex:
        return inner(self.backward, self.forward)

    def weak_value(self, q: Projector) -> complex:
        """<backward|Q|forward> / <backward|forward>.  Raises
        VanishingProbabilityError, carrying |<backward|forward>|^2, when the
        post-selection is incompatible with the pre-selection.  Q is applied
        by `_apply`: a label projector by its support, bit for bit."""
        _require_slice(q, self.forward.slice, "projector")
        denom = self.overlap()
        if abs(denom) <= DEFAULT_TOL:
            raise VanishingProbabilityError(
                "post-selection is incompatible with pre-selection: "
                f"|<backward|forward>| = {abs(denom):.3g}",
                abs(denom) ** 2,
            )
        projected = _apply(q, self.forward.amplitudes)
        return complex(np.vdot(self.backward.amplitudes, projected)) / denom


def backward_state(dyn: Dynamics, final: Ket, t: int) -> Ket:
    """Adjoint-transport the post-selected ket back to time t."""
    _require_slice(final, dyn.slices[dyn.final_index], "final ket")
    k = transport(dyn, final, t)
    name = f"{final.name}@t{t}" if final.name else ""
    return _trusted(Ket, slice=k.slice, amplitudes=k.amplitudes, name=name)


def two_state_vector(dyn: Dynamics, initial: Ket, final: Ket, t: int) -> TwoStateVector:
    return TwoStateVector(transport(dyn, initial, t), backward_state(dyn, final, t))


def weak_value(dyn: Dynamics, initial: Ket, final: Ket, q: Projector) -> complex:
    """Weak value of a projector at its own time, for the run pre-selected
    on `initial` and post-selected on `final`."""
    tsv = two_state_vector(dyn, initial, final, q.slice.time_index)
    return tsv.weak_value(q)


class PresenceVerdict(Enum):
    PRESENT = "present"
    ABSENT = "absent"
    MEANINGLESS = "meaningless"


@dataclass(frozen=True)
class ChannelPresence:
    """One row of the method comparison for a channel projector."""

    name: str
    weak_value: complex
    tsvf: PresenceVerdict
    ch: PresenceVerdict


def presence_table(
    dyn: Dynamics, initial: Ket, final: Ket, channels: Sequence[Projector]
) -> tuple[ChannelPresence, ...]:
    """Compare the two presence criteria per channel.

    The weak-trace reading calls the particle present wherever the weak
    value is nonzero.  The history reading calls it present at weak value 1,
    absent at 0, and refuses to discuss anything in between (the two-history
    framework is then inconsistent, which matches :func:`infer` by the
    chain-ket identity).
    """
    # One two-state vector per distinct time, built at the first channel
    # there, so any error is raised at the same channel as per-channel
    # `weak_value` calls would raise it.
    tsvs: dict[int, TwoStateVector] = {}
    rows = []
    for q in channels:
        t = q.slice.time_index
        if t not in tsvs:
            tsvs[t] = two_state_vector(dyn, initial, final, t)
        wv = tsvs[t].weak_value(q)
        tsvf = PresenceVerdict.PRESENT if abs(wv) > DEFAULT_TOL else PresenceVerdict.ABSENT
        if abs(wv - 1.0) <= DEFAULT_TOL:
            ch = PresenceVerdict.PRESENT
        elif abs(wv) <= DEFAULT_TOL:
            ch = PresenceVerdict.ABSENT
        else:
            ch = PresenceVerdict.MEANINGLESS
        rows.append(ChannelPresence(q.name or str(q.slice), wv, tsvf, ch))
    return tuple(rows)
