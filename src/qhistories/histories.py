"""History families, chain kets, consistency, and conditional inference.

A history is a sequence of (time, projector) events; times without an event
carry the identity implicitly.  A family bundles histories with a pure
initial state.  Probabilities exist only for consistent families: the chain
kets of distinct histories must be mutually orthogonal.  Inconsistent
families are not an error of construction, only of *use*: asking them for
probabilities raises, with the offending overlaps attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dynamics import Dynamics, _carry, _require_on, transport
from .statespace import (
    DEFAULT_TOL, Ket, Projector, TimeSlice, _apply, _computed_ket, _distance, _overlap,
    _require_finite, _require_slice, _trusted, identity_projector,
)


@dataclass(frozen=True, eq=False)
class History:
    """Events at strictly increasing time indices; omitted times mean I."""

    events: tuple[tuple[int, Projector], ...]

    def __post_init__(self):
        events = tuple((int(t), p) for t, p in self.events)
        times = [t for t, _ in events]
        if any(t < 0 for t in times):
            raise ValueError("event times must be >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"event times must strictly increase, got {times}")
        for t, p in events:
            if p.slice.time_index != t:
                raise ValueError(
                    f"event at time {t} carries a projector on slice {p.slice}"
                )
        object.__setattr__(self, "events", events)

    def event_at(self, t: int) -> Projector | None:
        for et, p in self.events:
            if et == t:
                return p
        return None

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.events)

    def label(self) -> str:
        return ",".join(p.name or f"E@t{t}" for t, p in self.events)


@dataclass(frozen=True, eq=False)
class Family:
    """A pure initial state plus a set of candidate histories.

    `complete` families must cover the identity: over the union of event
    times, the histories' operators (identity filled in) sum to the
    history-space identity.  That is checked from their structure, with no
    array over the history space (`_coverage_fault`), and a failure names
    the first overlapping pair of histories or the missing rank.
    Subfamilies (`complete=False`) skip that check.
    """

    initial: Ket
    histories: tuple[History, ...]
    complete: bool = False

    def __post_init__(self):
        object.__setattr__(self, "histories", tuple(self.histories))
        if not self.histories:
            raise ValueError("a family needs at least one history")
        t0 = self.initial.slice.time_index
        for h in self.histories:
            if h.events and h.events[0][0] <= t0:
                raise ValueError(
                    f"history events must start after the initial time t{t0}"
                )
        if self.complete:
            fault = _coverage_fault(self.histories)
            if fault:
                raise ValueError(f"complete family does not cover the identity ({fault})")


def _coverage_fault(histories: Sequence[History]) -> str:
    """Why the histories' operators (each the tensor product of its events,
    the identity where it has none) do not sum to the history-space
    identity, or "" if they do.  The events at one time must live on one
    slice.

    Projectors sum to the identity iff they are pairwise orthogonal and
    their ranks sum to its dimension.  Two history operators are orthogonal
    iff their events at some shared time are; an absent event is I, which
    is orthogonal to none.  A rank is exact: the rounded trace, which a
    label projector's 0/1 diagonal gives as an exact integer.  `memo`
    keeps each (P, Q) verdict for this call only.
    """
    slices: dict[int, TimeSlice] = {}
    for h in histories:
        for t, p in h.events:
            _require_slice(p, slices.setdefault(t, p.slice), "event")
    events = [dict(h.events) for h in histories]
    memo: dict[tuple[Projector, Projector], bool] = {}
    for i, a in enumerate(events):
        for j in range(i + 1, len(events)):
            b = events[j]
            for t in a.keys() & b.keys():
                key = (a[t], b[t])
                if key not in memo:
                    memo[key] = _overlap(*key) <= DEFAULT_TOL
                if memo[key]:
                    break
            else:
                return f"histories {i} and {j} overlap"
    # The trace summed in Python: a numpy reduction costs ~5x more per call.
    ranks = {p: round(sum(p.matrix.diagonal().real.tolist())) for e in events for p in e.values()}
    rank = sum(
        math.prod(ranks[e[t]] if t in e else slc.dim for t, slc in slices.items())
        for e in events
    )
    dim = math.prod(slc.dim for slc in slices.values())
    return "" if rank == dim else f"ranks sum to {rank}, not {dim}"


def _prefix_kets(dyn: Dynamics, initial: Ket, histories: Sequence[History]) -> list[Ket]:
    """The chain ket of each history's events but its last, carried to the
    time of its last event (`initial` for an event-free history), in
    history order.

    The histories are walked as a prefix tree keyed by (time, projector),
    on raw amplitudes: each distinct proper prefix is checked and projected
    once (`_apply`), from its parent's amplitudes carried once to each later
    time its children need, by an independent chain's products, so bit for
    bit.  Kets are built only for `chain_ket`, once per node and time, and
    their arrays are stacked and scanned for finiteness once, so every ket
    handed out is finite.  No other node is scanned: along every path
    through it a non-finite amplitude stays non-finite (a step's product
    carries it on, and an event keeps it or drops it to NaN, inf * 0), so
    it reaches that stack.
    """
    _require_on(dyn, initial)

    def carry(node, t: int) -> np.ndarray:
        v, s, _, carried, _ = node
        if t not in carried:
            carried[t] = _carry(dyn, v, s, t)
        return carried[t]

    # a node: (amplitudes, time, children by (time, projector), carried and kets by time)
    root = (initial.amplitudes, initial.slice.time_index, {}, {}, {})
    out, handed = [], []
    for h in histories:
        node = root
        for t, p in h.events[:-1]:
            children = node[2]
            if (t, p) not in children:
                _require_slice(p, dyn.slice_at(t), "event")
                children[t, p] = (_apply(p, carry(node, t)), t, {}, {}, {})
            node = children[t, p]
        if h.events and (t := h.events[-1][0]) not in node[4]:
            handed.append(carry(node, t))
            node[4][t] = _trusted(Ket, slice=dyn.slice_at(t), amplitudes=handed[-1], name="")
        out.append(node[4][t] if h.events else initial)
    if handed:
        _require_finite(np.array(handed))
    return out


def chain_ket(dyn: Dynamics, initial: Ket, h: History) -> Ket:
    """Alternate unitary transport and event projection (`_apply`) along a
    history.

    The result lives on the slice of the last event and is in general
    sub-normalized; its squared norm is the history's extended Born weight.
    An event-free history returns `initial` itself.  Whole families share
    their event prefixes instead (`_prefix_kets`).

    Only a matrix product can make a finite ket non-finite: a carry between
    times, or a projector without a recorded support.  A label event at the
    ket's own time (x * 1 = x, x * 0 + 0.0 = +0) is applied without a scan.
    Any other history runs its products under one errstate and scans the
    result once, so an overflow raises a ValueError with no RuntimeWarning.
    """
    _require_on(dyn, initial)
    if not h.events:
        return initial
    v, s = initial.amplitudes, initial.slice.time_index
    t, p = h.events[0]
    if len(h.events) == 1 and t == s and p._on is not None:
        slc = _require_slice(p, dyn.slice_at(t), "event")
        return _trusted(Ket, slice=slc, amplitudes=_apply(p, v), name="")
    with np.errstate(over="ignore", invalid="ignore"):
        for t, p in h.events:
            slc = _require_slice(p, dyn.slice_at(t), "event")
            v = _apply(p, _carry(dyn, v, s, t))
            s = t
    return _computed_ket(slc, v)


@dataclass(frozen=True)
class ConsistencyReport:
    """Pairwise chain-ket overlaps of a family.

    `max_overlap` is the largest |<c_i|c_j>| / max(1, |c_i| |c_j|), an
    absolute measure for a normalized initial state (see consistency_check);
    `offending_pairs` holds the raw inner products of the pairs exceeding
    `DEFAULT_TOL`, in row-major (i < j) order.
    """

    consistent: bool
    max_overlap: float
    offending_pairs: tuple[tuple[int, int, complex], ...] = ()


class InconsistentFamilyError(ValueError):
    """Probabilities were requested from an inconsistent family."""

    def __init__(self, report: ConsistencyReport):
        super().__init__(
            "family is inconsistent (max chain-ket overlap "
            f"{report.max_overlap:.6g}); probabilities are meaningless"
        )
        self.report = report


class InexpressibleEventError(ValueError):
    """An event is not a union of the family's own sample-space cells."""


class VanishingProbabilityError(ValueError):
    """A condition or post-selection has vanishing probability, so the
    quantity conditioned on it is meaningless; `probability` is its value."""

    def __init__(self, message: str, probability: float):
        super().__init__(message)
        self.probability = probability


def _decoherence(
    dyn: Dynamics, fam: Family
) -> tuple[ConsistencyReport, list[float], np.ndarray]:
    """The consistency report, the Born weights and the decoherence
    functional D = C* C^T, where row i of C is the chain ket of history i
    carried to the family's latest event time.

    The proper prefixes come from one prefix-tree walk (`_prefix_kets`).
    Both apply events by `_apply`, a label event by its support.  Each
    history then takes its own last event with `chain_ket`, one call
    per history with no transport step, so a tracer of the public functions
    (perfbench's `histories.chain_ket_*` metrics) sees one chain ket per
    history.  The walk's finiteness check is the one stacked scan of the
    prefix kets, plus `chain_ket`'s scan after a last event without a
    recorded support; a label last event cannot make a finite ket
    non-finite.  Only chain kets that end before the latest event time are
    transported, and `transport` scans them.  The weights are the squared
    norms of the un-carried chain kets; D's diagonal differs in the last
    bit.  Under one errstate, an infinite amplitude, or a weight or
    diagonal entry of D that overflows, raises a ValueError before any
    report is built, with no RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        chains = []
        for k, h in zip(_prefix_kets(dyn, fam.initial, fam.histories), fam.histories):
            last = object.__new__(History)  # holds no array, so `_trusted` has nothing to freeze
            last.__dict__["events"] = h.events[-1:]
            chains.append(chain_ket(dyn, k, last))
        t_max = max(k.slice.time_index for k in chains)
        ends = [k.slice.time_index == t_max for k in chains]
        c = np.array([
            k.amplitudes if end else transport(dyn, k, t_max).amplitudes
            for k, end in zip(chains, ends)
        ])
        d = c.conj() @ c.T
        re, im = c.real, c.imag  # each row's norm by the dots np.linalg.norm runs
        norms = np.sqrt((re[:, None] @ re[..., None]).ravel() + (im[:, None] @ im[..., None]).ravel())
        weights = [float(n if end else np.linalg.norm(k.amplitudes)) ** 2
                   for k, n, end in zip(chains, norms, ends)]
    if not (np.isfinite(d.diagonal()).all() and np.isfinite(weights).all()):
        raise ValueError("squared chain-ket norms overflow; they must be finite")
    pairs = ~np.tri(len(chains), dtype=bool)  # i < j
    ratio = np.abs(d) / np.maximum(1.0, np.multiply.outer(norms, norms))
    max_overlap = float(ratio[pairs].max(initial=0.0))
    i, j = np.nonzero(pairs & (ratio > DEFAULT_TOL))  # row-major
    offending = tuple(zip(i.tolist(), j.tolist(), d[i, j].tolist()))
    report = ConsistencyReport(max_overlap <= DEFAULT_TOL, max_overlap, offending)
    return report, weights, d


def consistency_check(dyn: Dynamics, fam: Family) -> ConsistencyReport:
    """Pairwise-orthogonality test of the family's chain kets.

    Each overlap |<c_i|c_j>| is divided by max(1, |c_i| |c_j|), which is 1
    for a normalized initial state: the criterion is absolute, not relative
    to the weights of the two histories (ROADMAP item "Verdicts that know
    their resolution").  An overlap exactly at `DEFAULT_TOL` counts as
    consistent.
    """
    return _decoherence(dyn, fam)[0]


def born_probabilities(dyn: Dynamics, fam: Family) -> dict[History, float]:
    """Extended Born rule: history -> squared chain-ket norm, conditioned on
    the initial state.  Rejects inconsistent families.
    """
    report, weights, _ = _decoherence(dyn, fam)
    if not report.consistent:
        raise InconsistentFamilyError(report)
    return dict(zip(fam.histories, weights))


def _match(
    h: History,
    events: Iterable[tuple[int, Projector]],
    memo: dict[tuple[int, Projector | None, Projector], bool],
) -> bool:
    """True if the history's event at each given time (the identity if it
    has none) equals the given projector; False if orthogonal to it;
    anything else violates the single framework rule.  Two label projectors
    are compared by their recorded supports: equal iff the supports are,
    orthogonal iff they are disjoint.  `memo` keeps each (time, event,
    projector) verdict for the rest of the caller's call, so each distinct
    triple is compared once.
    """
    for t, p in events:
        e = h.event_at(t)
        key = (t, e, p)
        if key not in memo:
            ev = identity_projector(p.slice) if e is None else e
            if _distance(ev, p) <= DEFAULT_TOL:
                memo[key] = True
            elif _overlap(ev, p) <= DEFAULT_TOL:
                memo[key] = False
            else:
                raise InexpressibleEventError(
                    f"event {p.name or 'projector'} at time {t} is not expressible "
                    "in this family (single framework rule)"
                )
        if not memo[key]:
            return False
    return True


def conditional_probability(
    dyn: Dynamics,
    fam: Family,
    condition: Iterable[tuple[int, Projector]],
    query: Iterable[tuple[int, Projector]],
) -> float:
    """Ratio of summed Born weights Pr(query | condition, initial state).

    Both arguments are sets of (time, projector) events, each on the slice
    of `dyn` at its time.  The condition must pick out a union of the
    family's histories; the query must do so within the conditioned
    subfamily.
    """
    condition = tuple(condition)
    query = tuple(query)
    for t, p in condition + query:
        _require_slice(p, dyn.slice_at(t), "event")
    return _conditional(fam, born_probabilities(dyn, fam), condition, query)


def _conditional(
    fam: Family,
    weights: dict[History, float],
    condition: Sequence[tuple[int, Projector]],
    query: Sequence[tuple[int, Projector]],
) -> float:
    """`conditional_probability` from the family's Born weights, for events
    already checked against the dynamics."""
    memo: dict = {}
    selected = [h for h in fam.histories if _match(h, condition, memo)]
    cond_mass = sum(weights[h] for h in selected)
    if cond_mass <= DEFAULT_TOL:
        raise VanishingProbabilityError(
            f"condition has vanishing probability ({cond_mass:.3g})", cond_mass
        )
    joint_mass = sum(weights[h] for h in selected if _match(h, query, memo))
    return joint_mass / cond_mass


def refine(fam: Family, time_index: int, parts: Sequence[Projector]) -> Family:
    """Split histories at `time_index` by a finer decomposition.

    Every history whose event at that time equals the sum of `parts`
    (identity if absent) is replaced by one history per part; all other
    histories pass through unchanged.  The result is returned *unvalidated*:
    consistency of a refinement is a separate question, and once lost it
    cannot be restored by refining further.  A history event at that time
    must live on the parts' slice.  When the parts and an event are label
    projectors, the overlap and split tests read their recorded supports:
    the parts must be pairwise disjoint, and their sum is the label
    projector of the union.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("refinement needs at least one part")
    slc = parts[0].slice
    if slc.time_index != time_index:
        raise ValueError(
            f"parts live at time {slc.time_index}, not {time_index}"
        )
    for p in parts[1:]:
        _require_slice(p, slc, "part")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if _overlap(parts[i], parts[j]) > DEFAULT_TOL:
                raise ValueError(f"refinement parts {i} and {j} overlap")
    ons = [p._on for p in parts]
    union = None if any(on is None for on in ons) else np.logical_or.reduce(ons)
    total = None

    t = int(slc.time_index)
    new_histories: list[History] = []
    splits: dict[Projector | None, bool] = {}
    for h in fam.histories:
        e = h.event_at(t)
        if e not in splits:
            if e is not None:
                _require_slice(e, slc, "history event")
            e_on = np.ones(slc.dim, dtype=bool) if e is None else e._on
            if union is not None and e_on is not None:
                splits[e] = not (e_on != union).any()
            else:
                if total is None:
                    total = sum(p.matrix for p in parts)
                e_mat = np.eye(slc.dim) if e is None else e.matrix
                splits[e] = float(np.max(np.abs(e_mat - total))) <= DEFAULT_TOL
        if splits[e]:
            # a valid history split at a checked slice is valid
            before = tuple(ev for ev in h.events if ev[0] < t)
            after = tuple(ev for ev in h.events if ev[0] > t)
            new_histories.extend(
                _trusted(History, events=(*before, (t, p), *after)) for p in parts
            )
        else:
            new_histories.append(h)
    if not any(splits.values()):
        raise ValueError(
            f"no history event at time {time_index} equals the sum of the "
            "replacement parts"
        )
    return Family(fam.initial, tuple(new_histories), fam.complete)


@dataclass(frozen=True)
class Defined:
    """The queried probability exists in the coarsest framework."""

    probability: float


@dataclass(frozen=True)
class Incommensurate:
    """The coarsest framework holding the query is inconsistent, so the
    probability is meaningless; the report carries the overlaps."""

    report: ConsistencyReport


InferenceVerdict = Defined | Incommensurate


def infer(
    dyn: Dynamics, initial: Ket, final_event: Projector, query: Projector
) -> InferenceVerdict:
    """Decide Pr(query | initial, final event) in the coarsest framework.

    Builds the two-history family {initial * P * final, initial * ~P * final}
    and either returns the conditional probability of P or reports why none
    exists.  Deliberately does not search finer framings.
    """
    t_final = dyn.final_index
    _require_slice(final_event, dyn.slice_at(t_final), "final event")
    t = query.slice.time_index
    fam = Family(
        initial,
        (
            History(((t, query), (t_final, final_event))),
            History(((t, query.complement()), (t_final, final_event))),
        ),
    )
    report, weights, d = _decoherence(dyn, fam)
    # The two chain kets sum to the final event applied to the evolved
    # initial state, so the sum of D is its forward probability.
    p_final = float(d.sum().real)
    if p_final <= DEFAULT_TOL:
        raise VanishingProbabilityError(
            f"final event has vanishing forward probability ({p_final:.3g})", p_final
        )
    if not report.consistent:
        return Incommensurate(report)
    return Defined(weights[0] / (weights[0] + weights[1]))
