"""Qubit probes weakly coupled to channels, and the statistics they leave.

Each probe is a two-level ancilla starting in |0>.  When the particle
crosses a coupled channel, the probe rotates by a small angle: |0> picks up
amplitude sqrt(eps) on |1>.  The joint particle+probes state stays pure and
small (d channels x 2^n probe patterns), so everything is dense.  A
coupling writes only its probe's excited half, empty until then.  Readout
works on the whole amplitude array at once.  The outcome distribution is
held as one read-only cell array that its accessors, support and sampling
read.  Label-projector detectors (and `slice_pdi`) sum |amplitude|^2 by one
0/1 mask product, or by masked sums once a part has three or more channels;
any other detector takes one broadcast matrix product of all parts over all
2^n patterns.  The branch decomposition is one column-norm call.

Probe patterns ("kappa") are written as the excited probe ids concatenated
in configuration order, with "o" for none, e.g. "o", "a", "db", "dce".
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dynamics import Dynamics, _carry, _require_on
from .histories import VanishingProbabilityError
from .statespace import (
    DEFAULT_TOL, Ket, PDI, TimeSlice, _frozen_array, _reduce_computed, _require_slice, _trusted,
)


@dataclass(frozen=True)
class ProbeSpec:
    """A probe id plus the (time index, channel label) pairs at which it
    fires, all at one time.  A multi-channel coupling set (like a probe
    watching two arms at the same time) rotates once per occupied channel.
    A probe coupled at two times would be rotated twice on a path through
    both, so that is rejected.  Each time must be an integer (anything
    `operator.index` accepts) and each channel label a string.
    """

    probe_id: str
    couplings: frozenset[tuple[int, str]]

    def __post_init__(self):
        if not self.probe_id:
            raise ValueError("probe id must be non-empty")
        object.__setattr__(self, "couplings", frozenset(self.couplings))
        if not self.couplings:
            raise ValueError(f"probe {self.probe_id!r} has no couplings")
        for t, label in self.couplings:
            try:
                operator.index(t)
            except TypeError:
                msg = f"probe {self.probe_id!r} has time {t!r}, not an integer"
                raise ValueError(msg) from None
            if not isinstance(label, str):
                raise ValueError(f"probe {self.probe_id!r} has channel {label!r}, not a string")
        times = sorted({t for t, _ in self.couplings})
        if len(times) > 1:
            raise ValueError(f"probe {self.probe_id!r} couples at times {times}, not at one time")


#: The built-in probes: one per inner channel, firing when the particle
#: first reaches that channel, plus `w` watching both arms of the inner loop
#: without distinguishing them.
BUILTIN_PROBES: dict[str, ProbeSpec] = {
    "a": ProbeSpec("a", frozenset({(1, "A")})),
    "d": ProbeSpec("d", frozenset({(1, "D")})),
    "b": ProbeSpec("b", frozenset({(2, "B")})),
    "c": ProbeSpec("c", frozenset({(2, "C")})),
    "e": ProbeSpec("e", frozenset({(3, "E")})),
    "w": ProbeSpec("w", frozenset({(2, "B"), (2, "C")})),
}

#: Canonical ordering of the built-in probe ids.
BUILTIN_ORDER = ("a", "d", "b", "c", "e", "w")


def standard_probes(ids: Iterable[str]) -> tuple[ProbeSpec, ...]:
    """Built-in probes selected by id, in canonical order."""
    wanted = set(ids)
    unknown = wanted - set(BUILTIN_ORDER)
    if unknown:
        raise ValueError(
            f"unknown probe ids {sorted(unknown)}; choose from {','.join(BUILTIN_ORDER)}"
        )
    return tuple(BUILTIN_PROBES[i] for i in BUILTIN_ORDER if i in wanted)


@dataclass(frozen=True)
class ProbeStrength:
    """Coupling strength eps in [0, 1); excitation amplitude eta = sqrt(eps),
    survival amplitude zeta = sqrt(1 - eps)."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon!r}")

    @property
    def eta(self) -> float:
        return math.sqrt(self.epsilon)

    @property
    def zeta(self) -> float:
        return math.sqrt(1.0 - self.epsilon)


def _kappa_labels(probes: Sequence[ProbeSpec]) -> list[str]:
    """The label of every mask, indexed by mask: the ids of the probes whose
    bits are set, in probe order, or "o" for mask 0.  Mask m + 2^k with
    m < 2^k is the label of m followed by probe k's id."""
    labels = [""]
    for p in probes:
        labels += [lab + p.probe_id for lab in labels]
    labels[0] = "o"
    return labels


@functools.cache
def _kappa_order(n_probes: int) -> tuple[int, ...]:
    """Masks sorted by excitation count, then by probe position; built once
    per probe count."""
    return tuple(sorted(range(1 << n_probes), key=lambda m: (bin(m).count("1"), m)))


_BUILTIN_POSITION = {pid: i for i, pid in enumerate(BUILTIN_ORDER)}


def _kappa_sort_key(kappa: str) -> tuple[int, tuple[int, ...]]:
    """Sort key for labels of built-in probes: "o" first, then by excitation
    count, then lexicographically by canonical probe position.

    This is not `_kappa_order` on labels.  Among patterns with the same
    excitation count, masks compare from the highest bit (the last probe)
    down, labels from the first probe up.  The two agree for up to three
    probes and part from four on: with probes a,d,b,e the masks give
    ad, ab, db, ae and the labels ad, ab, ae, db.  Branch listings follow
    the mask order, support lists and sample counts this one.
    """
    if kappa == "o":
        return (0, ())
    return (len(kappa), tuple(_BUILTIN_POSITION[c] for c in kappa))


@dataclass(frozen=True, eq=False)
class JointState:
    """Particle-plus-probes amplitudes at one slice.

    `amplitudes[i, m]` is the amplitude for the particle in channel i of the
    slice with probe pattern mask m (bit k of m = probe k excited).  A
    caller's array passes the one intake of every amplitude array, so each
    entry is at most the amplitude bound.  `evolve_with_probes` builds the
    state from an accepted ket by unitary steps and probe rotations, which
    keep its norm but may take an entry past the bound by up to a factor
    sqrt(d); pickle and copy rebuild the state as it was computed.
    """

    slice: TimeSlice
    probes: tuple[ProbeSpec, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probes", tuple(self.probes))
        shape = (self.slice.dim, 1 << len(self.probes))
        arr = _frozen_array(self.amplitudes, shape, "joint state")
        object.__setattr__(self, "amplitudes", arr)

    __reduce__ = _reduce_computed

    @functools.cached_property
    def _labels(self) -> tuple[str, ...]:
        """`_kappa_labels` of the probes, built when first read."""
        return tuple(_kappa_labels(self.probes))


@dataclass(frozen=True, eq=False)
class BranchComponent:
    """One probe pattern's particle component in the decomposition
    state = sum over kappa of phi^kappa (x) |kappa>."""

    kappa: str
    phi: Ket


def _apply_coupling(amps: np.ndarray, channel_axis: int, bit: int, strength: ProbeStrength) -> None:
    """In place: rotate probe `bit` from |0> on the row where the particle
    occupies `channel_axis`, so (a0, 0) becomes (zeta * a0, eta * a0).  A
    `ProbeSpec` couples at one time, where each row is one channel, and only
    this coupling sets the bit, so every column with the bit set is still
    zero here: the rotation's |1> column (its completion) would multiply
    zeros and never enter any outcome.
    """
    # A view of the (C-contiguous) row: [high bits, probe bit, low bits].
    row = amps[channel_axis].reshape(-1, 2, 1 << bit)
    a0 = row[:, 0]
    row[:, 1] = strength.eta * a0
    row[:, 0] = strength.zeta * a0


def evolve_with_probes(
    dyn: Dynamics,
    probes: Sequence[ProbeSpec],
    strength: ProbeStrength,
    initial: Ket,
    *,
    upto: int | None = None,
) -> JointState:
    """Evolve `initial` (x) |0...0> to the final slice (or to `upto`).

    The joint (d, 2^n) array is carried from one coupling time to the next
    by the step loop of `transport` (`_carry`), whose products are the
    identity on the probes; couplings at `upto` apply, later ones do not.
    The couplings run by time, then probe id, then channel label.  Every
    coupling is resolved against `dyn` first, those after `upto` too; of
    several foreign ones, the first in that order is named.
    """
    probes = tuple(probes)
    if len(set(p.probe_id for p in probes)) != len(probes):
        raise ValueError("probe ids must be distinct")
    couplings = [
        (t, pos, dyn.slice_at(t).axis(label))
        for t, _, label, pos in sorted(
            (t, p.probe_id, label, pos) for pos, p in enumerate(probes) for t, label in p.couplings
        )
    ]
    _require_on(dyn, initial)
    if initial.slice.time_index != 0:
        raise ValueError("probe evolution starts at time 0")
    stop = dyn.final_index if upto is None else upto
    dyn.slice_at(stop)

    amps = np.zeros((initial.slice.dim, 1 << len(probes)), dtype=complex)
    amps[:, 0] = initial.amplitudes
    t = 0
    # `_carry` hands back `amps` itself or a fresh C-contiguous product, so
    # each coupling writes its row in place.
    for tc, pos, axis in couplings:
        if tc > stop:
            break
        amps, t = _carry(dyn, amps, t, tc), tc
        _apply_coupling(amps, axis, pos, strength)
    amps = _carry(dyn, amps, t, stop)
    return _trusted(JointState, slice=dyn.slices[stop], probes=probes, amplitudes=amps)


def branch_components(js: JointState) -> tuple[BranchComponent, ...]:
    """Decompose by probe pattern, dropping branches of norm at most
    `DEFAULT_TOL`.  Ordered by excitation count, then probe position."""
    norms = np.linalg.norm(js.amplitudes, axis=0).tolist()
    labels = js._labels
    # One contiguous row per pattern, laid out as a copy of each column.
    # The branch kets are views into it, so the whole buffer is read-only;
    # they are rows of accepted amplitudes, so they need no check.  Each ket
    # and component is built as `_trusted` builds it, without its per-field
    # flag loop.
    rows = js.amplitudes.T.copy()
    rows.setflags(write=False)
    new, slc = object.__new__, js.slice
    branches = []
    for mask in _kappa_order(len(js.probes)):
        if norms[mask] > DEFAULT_TOL:
            phi = new(Ket)
            phi.__dict__.update(slice=slc, amplitudes=rows[mask], name="")
            branch = new(BranchComponent)
            branch.__dict__.update(kappa=labels[mask], phi=phi)
            branches.append(branch)
    return tuple(branches)


@dataclass(frozen=True, eq=False, init=False)
class OutcomeDistribution:
    """Joint probabilities over (detector label, probe pattern), zero cells
    included; helpers marginalize or condition on a detector.

    The cells are held once, as a read-only float64 array in the order of a
    tuple of keys; `probs` is a read-only mapping view built when first
    read.  A caller's mapping is checked here, once, for finite values
    >= 0; `outcome_distribution` hands over squared norms of a joint state
    instead.  The detector names, in order of first appearance, are held
    from construction on.
    """

    _keys: tuple[tuple[str, str], ...]
    _cells: np.ndarray
    _detectors: tuple[str, ...] = field(repr=False)

    def __new__(cls, probs: Mapping[tuple[str, str], float]):
        cells = np.array(list(probs.values()), dtype=float)
        if not ((cells >= 0.0) & (cells < np.inf)).all():
            raise ValueError("outcome probabilities must be finite and >= 0")
        keys = tuple(probs)
        dets = tuple(dict.fromkeys([d for d, _ in keys]))
        return _trusted(cls, _keys=keys, _cells=cells, _detectors=dets)

    def __reduce__(self):
        return type(self), (dict(self.probs),)

    @functools.cached_property
    def probs(self) -> Mapping[tuple[str, str], float]:
        return types.MappingProxyType(dict(zip(self._keys, self._cells.tolist())))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.probs == other.probs

    def _cells_of(self, detector: str) -> list[tuple[str, float]]:
        cells = [(k, v) for (d, k), v in zip(self._keys, self._cells.tolist()) if d == detector]
        if not cells:
            raise ValueError(
                f"unknown detector {detector!r}; detectors are {list(self.detectors())}"
            )
        return cells

    def p(self, detector: str, kappa: str) -> float:
        return dict(self._cells_of(detector))[kappa]

    def detector_marginal(self, detector: str) -> float:
        return sum(v for _, v in self._cells_of(detector))

    def given_detector(self, detector: str) -> dict[str, float]:
        mass = self.detector_marginal(detector)
        if mass <= 0.0:
            raise VanishingProbabilityError(
                f"detector {detector!r} has zero probability", mass
            )
        return {k: v / mass for k, v in self._cells_of(detector)}

    def total(self) -> float:
        return sum(self._cells.tolist())

    def detectors(self) -> tuple[str, ...]:
        return self._detectors


def outcome_distribution(js: JointState, detector_pdi: PDI) -> OutcomeDistribution:
    """Pr(detector, kappa) = squared norm of the detector projector applied
    to that branch component.  Totals 1 for a normalized joint state.

    Keys run detector by detector, each over the patterns in `_kappa_order`.
    Unnamed parts are called "part<i>"; two parts may not share a name.
    """
    _require_slice(detector_pdi, js.slice, "detector decomposition")
    dets = [part.name or f"part{i}" for i, part in enumerate(detector_pdi.parts)]
    for i, det in enumerate(dets):
        if det in dets[:i]:
            raise ValueError(f"detector name {det!r} is given to more than one part")
    order = _kappa_order(len(js.probes))
    by_mask = js._labels
    # One row per pattern (2^n, d), in `order`.  Every cell is a sum over
    # d of contiguous |.|^2 terms in a (k, 2^n, d) layout, so it has the
    # value that part's and pattern's own matrix-vector product and sum
    # give, bit for bit.  A label projector keeps some terms and zeroes the
    # rest, as its 0/1 support times |.|^2 does (x*1 = x, x*0 = +0); with
    # at most two kept terms, a mask product sums them with one rounding in
    # any order.
    ons = [part._on for part in detector_pdi.parts]
    cols = js.amplitudes.T[list(order)]
    if all(on is not None for on in ons):
        on, sq = np.array(ons, dtype=float), np.abs(cols) ** 2
        if max(on.sum(axis=1).tolist()) <= 2:
            cells = (on @ sq.T).ravel()
        else:
            cells = np.sum(on[:, None, :] * sq, axis=2).ravel()
    else:
        # Parts (k, 1, d, d) over one column vector per pattern (1, 2^n, d, 1).
        mats = np.stack([part.matrix for part in detector_pdi.parts])
        prods = np.matmul(mats[:, None], cols[None, :, :, None])
        cells = np.sum(np.abs(prods) ** 2, axis=(2, 3)).ravel()
    keys = tuple(itertools.product(dets, [by_mask[mask] for mask in order]))
    return _trusted(OutcomeDistribution, _keys=keys, _cells=cells, _detectors=tuple(dets))


def coincidence_support(dist: OutcomeDistribution) -> dict[str, set[str]]:
    """Per detector, the set of probe patterns with probability above
    `DEFAULT_TOL`."""
    support: dict[str, set[str]] = {d: set() for d in dist.detectors()}
    keys = dist._keys
    for i in np.flatnonzero(dist._cells > DEFAULT_TOL).tolist():
        d, k = keys[i]
        support[d].add(k)
    return support


#: Largest sample count: numpy's multinomial takes the count as an int64.
_MAX_SAMPLES = (1 << 63) - 1


def sample(
    dist: OutcomeDistribution, n: int, seed: int
) -> dict[tuple[str, str], int]:
    """Aggregate counts of n independent draws; deterministic given seed.
    Zero-count cells are omitted; the rest follow key order."""
    if not 1 <= n <= _MAX_SAMPLES:
        raise ValueError(f"sample count must be >= 1 and <= {_MAX_SAMPLES}, got {n}")
    p = dist._cells
    total = p.sum()
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
        raise ValueError(f"distribution mass {total} is not 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, p / total)
    drawn = np.flatnonzero(counts)
    keys = dist._keys
    return dict(zip([keys[i] for i in drawn.tolist()], counts[drawn].tolist()))
