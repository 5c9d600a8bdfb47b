"""Qubit probes weakly coupled to channels, and the statistics they leave.

Each probe is a two-level ancilla starting in |0>.  When the particle
crosses a coupled channel, the probe rotates by a small angle: |0> picks up
amplitude sqrt(eps) on |1>.  The joint particle+probes state stays pure and
small (d channels x 2^n probe patterns), so everything is dense.  The joint
state is checked for finite amplitudes once, when it is built, and readout
works on the whole amplitude array at once.  The outcome distribution is
held as one read-only cell array that its accessors, support and sampling
read.  When every detector part is a 0/1 diagonal matrix (every label
projector and `slice_pdi`), its cells are masked sums of |amplitude|^2;
any other detector takes one broadcast matrix product of all parts over all
2^n patterns.  The branch decomposition is one column-norm call.

Probe patterns ("kappa") are written as the excited probe ids concatenated
in configuration order, with "o" for none, e.g. "o", "a", "db", "dce".
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dynamics import Dynamics, _require_on
from .histories import VanishingProbabilityError
from .statespace import (
    DEFAULT_TOL, Ket, PDI, TimeSlice, _frozen_array, _reduce, _require_slice, _trusted,
)


@dataclass(frozen=True)
class ProbeSpec:
    """A probe id plus the (time index, channel label) pairs at which it
    fires, all at one time.  A multi-channel coupling set (like a probe
    watching two arms at the same time) rotates once per occupied channel.
    A probe coupled at two times would be rotated twice on a path through
    both, so that is rejected.
    """

    probe_id: str
    couplings: frozenset[tuple[int, str]]

    def __post_init__(self):
        if not self.probe_id:
            raise ValueError("probe id must be non-empty")
        object.__setattr__(self, "couplings", frozenset(self.couplings))
        if not self.couplings:
            raise ValueError(f"probe {self.probe_id!r} has no couplings")
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


def _kappa_label(mask: int, probes: Sequence[ProbeSpec]) -> str:
    if mask == 0:
        return "o"
    return "".join(p.probe_id for i, p in enumerate(probes) if mask >> i & 1)


def _kappa_labels(probes: Sequence[ProbeSpec]) -> list[str]:
    """`_kappa_label` of every mask, indexed by mask.  Mask m + 2^k with
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
    slice with probe pattern mask m (bit k of m = probe k excited).  Every
    amplitude must be finite: a non-unitary step can overflow, and a NaN
    column would otherwise read as a branch of no weight.
    """

    slice: TimeSlice
    probes: tuple[ProbeSpec, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probes", tuple(self.probes))
        shape = (self.slice.dim, 1 << len(self.probes))
        arr = _frozen_array(self.amplitudes, shape, "joint state")
        object.__setattr__(self, "amplitudes", arr)

    __reduce__ = _reduce

    def total_norm2(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass(frozen=True, eq=False)
class BranchComponent:
    """One probe pattern's particle component in the decomposition
    state = sum over kappa of phi^kappa (x) |kappa>."""

    kappa: str
    phi: Ket


def _couplings_by_time(
    dyn: Dynamics, probes: Sequence[ProbeSpec]
) -> dict[int, list[tuple[int, int]]]:
    """time -> [(probe position, channel axis)], ordered by probe id then
    channel label so that same-time applications are deterministic.  The
    maps commute (disjoint control channels or distinct probe factors), so
    the order is immaterial to the result.  Rejects couplings at times or
    channels foreign to `dyn`.
    """
    by_time: dict[int, list[tuple[int, str]]] = {}
    for pos, spec in enumerate(probes):
        for t, label in spec.couplings:
            by_time.setdefault(t, []).append((pos, label))
    resolved = {}
    for t, pcs in by_time.items():
        slc = dyn.slice_at(t)
        pcs.sort(key=lambda pc: (probes[pc[0]].probe_id, pc[1]))
        resolved[t] = [(pos, slc.axis(label)) for pos, label in pcs]
    return resolved


def _apply_coupling(
    amps: np.ndarray,
    channel_axis: int,
    bit: int,
    strength: ProbeStrength,
    completion_phase: float,
) -> None:
    """In place: rotate probe `bit` on the rows where the particle occupies
    `channel_axis`.  The |0> column is (zeta, eta); the |1> column is the
    rotation completion times exp(i * completion_phase).  Probes start in
    |0>, and a `ProbeSpec` couples at one time, where each row is one
    channel, so a probe is rotated at most once on any row and the
    completion never enters any outcome.
    """
    z, e = strength.zeta, strength.eta
    phase = np.exp(1j * completion_phase)
    # A view of the (C-contiguous) row: [high bits, probe bit, low bits].
    row = amps[channel_axis].reshape(-1, 2, 1 << bit)
    a0, a1 = row[:, 0], row[:, 1]
    row[:, 0], row[:, 1] = z * a0 - e * phase * a1, e * a0 + z * phase * a1


def evolve_with_probes(
    dyn: Dynamics,
    probes: Sequence[ProbeSpec],
    strength: ProbeStrength,
    initial: Ket,
    *,
    upto: int | None = None,
    completion_phase: float = 0.0,
) -> JointState:
    """Evolve `initial` (x) |0...0> to the final slice (or to `upto`),
    alternating step unitaries (identity on the probes) with the probe
    couplings registered at each arrival time.
    """
    probes = tuple(probes)
    if len(set(p.probe_id for p in probes)) != len(probes):
        raise ValueError("probe ids must be distinct")
    by_time = _couplings_by_time(dyn, probes)
    _require_on(dyn, initial)
    if initial.slice.time_index != 0:
        raise ValueError("probe evolution starts at time 0")
    stop = dyn.final_index if upto is None else upto
    dyn.slice_at(stop)

    n = len(probes)
    amps = np.zeros((initial.slice.dim, 1 << n), dtype=complex)
    amps[:, 0] = initial.amplitudes
    for t in range(stop + 1):
        for pos, axis in by_time.get(t, []):
            _apply_coupling(amps, axis, pos, strength, completion_phase)
        if t < stop:
            amps = dyn.steps[t].matrix @ amps
    return JointState(dyn.slices[stop], probes, amps)


def branch_components(js: JointState) -> tuple[BranchComponent, ...]:
    """Decompose by probe pattern, dropping branches of norm at most
    `DEFAULT_TOL`.  Ordered by excitation count, then probe position."""
    norms = np.linalg.norm(js.amplitudes, axis=0).tolist()
    labels = _kappa_labels(js.probes)
    # One contiguous row per pattern, laid out as a copy of each column.
    # The branch kets are views into it, so the whole buffer is read-only;
    # the joint state checked every entry, so the kets need no check.  Each
    # ket and component is built as `_trusted` builds it, without its
    # per-field flag loop.
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
    >= 0; `outcome_distribution` hands over squared norms of a checked
    joint state instead.  The detector names, in order of first
    appearance, are held from construction on.
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
    by_mask = _kappa_labels(js.probes)
    # One row per pattern (2^n, d), in `order`.  Every cell is a sum over
    # d of contiguous |.|^2 terms in a (k, 2^n, d) layout, so it has the
    # value that part's and pattern's own matrix-vector product and sum
    # give, bit for bit.  A 0/1 diagonal part copies the amplitudes it
    # keeps and zeroes the rest, so when every part is a label projector,
    # its recorded support over |amplitude|^2 gives the same terms without
    # the product.
    ons = [part._on for part in detector_pdi.parts]
    cols = js.amplitudes.T[list(order)]
    if all(on is not None for on in ons):
        on = np.stack(ons)
        cells = np.sum(np.where(on[:, None, :], np.abs(cols) ** 2, 0.0), axis=2).ravel()
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
