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
    DEFAULT_TOL, Ket, Projector, TimeSlice, _computed_ket, _distance, _overlap, _trusted,
    identity_projector,
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


def _slices_by_time(histories: Sequence[History]) -> dict[int, TimeSlice]:
    slices: dict[int, TimeSlice] = {}
    for h in histories:
        for t, p in h.events:
            if t in slices and slices[t] != p.slice:
                raise ValueError(f"conflicting slices at time {t}")
            slices[t] = p.slice
    return slices


def _coverage_fault(histories: Sequence[History]) -> str:
    """Why the histories' operators (each the tensor product of its events,
    the identity where it has none) do not sum to the history-space
    identity, or "" if they do.

    Projectors sum to the identity iff they are pairwise orthogonal and
    their ranks sum to its dimension.  Two history operators are orthogonal
    iff their events at some shared time are; an absent event is I, which
    is orthogonal to none.  A rank is exact: a label projector's support
    count, any other's rounded trace.  `memo` keeps each (P, Q) verdict
    for this call only.
    """
    slices = _slices_by_time(histories)
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
    ranks = {
        p: round(np.trace(p.matrix).real) if p._on is None else int(np.count_nonzero(p._on))
        for e in events for p in e.values()
    }
    rank = sum(
        math.prod(ranks[e[t]] if t in e else slc.dim for t, slc in slices.items())
        for e in events
    )
    dim = math.prod(slc.dim for slc in slices.values())
    return "" if rank == dim else f"ranks sum to {rank}, not {dim}"


def _require_event(dyn: Dynamics, t: int, p: Projector) -> TimeSlice:
    """The slice of `dyn` at time `t`, which the event `p` must live on."""
    slc = dyn.slice_at(t)
    if p.slice != slc:
        raise ValueError(f"event projector at time {t} lives on {p.slice}, not {slc}")
    return slc


def _project(dyn: Dynamics, k: Ket, t: int, p: Projector) -> Ket:
    """Carry `k` to time `t` and apply the event `p` there."""
    slc = _require_event(dyn, t, p)
    amps = p.matrix @ _carry(dyn, k.amplitudes, k.slice.time_index, t)
    return _computed_ket(slc, amps)


def _prefix_kets(dyn: Dynamics, initial: Ket, histories: Sequence[History]) -> list[Ket]:
    """The chain ket of each history's events but its last, carried to the
    time of its last event (`initial` for an event-free history), in
    history order.

    The histories are walked as a prefix tree keyed by (time, projector):
    each distinct proper prefix is projected once, from its parent's ket
    carried once to each later time its children need (the node's
    `carried`, which lives only for this walk).  Every ket takes the same
    matvecs as an independent chain, so it is bit-identical to one.
    """
    _require_on(dyn, initial)

    def carry(node, t: int) -> Ket:
        k, _, carried = node
        if t not in carried:
            slc = dyn.slice_at(t)
            amps = _carry(dyn, k.amplitudes, k.slice.time_index, t)
            carried[t] = _trusted(Ket, slice=slc, amplitudes=amps, name="")
        return carried[t]

    # a node is (ket, children keyed by (time, projector), carried kets keyed by time)
    root = (initial, {}, {})
    out = []
    for h in histories:
        node = root
        for t, p in h.events[:-1]:
            children = node[1]
            if (t, p) not in children:
                children[t, p] = (_project(dyn, carry(node, t), t, p), {}, {})
            node = children[t, p]
        out.append(carry(node, h.events[-1][0]) if h.events else initial)
    return out


def chain_ket(dyn: Dynamics, initial: Ket, h: History) -> Ket:
    """Alternate unitary transport and event projection along a history.

    The result lives on the slice of the last event and is in general
    sub-normalized; its squared norm is the history's extended Born weight.
    An event-free history returns `initial` itself.  Whole families share
    their event prefixes instead (`_prefix_kets`).
    """
    _require_on(dyn, initial)
    k = initial
    for t, p in h.events:
        k = _project(dyn, k, t, p)
    return k


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

    The histories' proper prefixes come from one prefix-tree walk
    (`_prefix_kets`), so a family pays one projection per distinct event
    prefix and one carry per node and later time, not one chain per
    history.  Each history then takes its own last event with `chain_ket`,
    one call per history and with no transport step, so a tracer of the
    public functions (perfbench's `histories.chain_ket_*` metrics) sees one
    chain ket per history.  Only chain kets that end before the latest event
    time are transported.  The weights are the squared norms of the
    un-carried chain kets (the row norms of C for those that end at the
    latest time); D's diagonal differs in the last bit.
    """
    chains = [
        chain_ket(dyn, k, _trusted(History, events=h.events[-1:]))
        for k, h in zip(_prefix_kets(dyn, fam.initial, fam.histories), fam.histories)
    ]
    t_max = max(k.slice.time_index for k in chains)
    ends = [k.slice.time_index == t_max for k in chains]
    c = np.array([
        k.amplitudes if end else transport(dyn, k, t_max).amplitudes
        for k, end in zip(chains, ends)
    ])
    d = c.conj() @ c.T
    norms = np.array([np.linalg.norm(row) for row in c])
    i, j = np.triu_indices(len(chains), 1)
    overlaps = np.abs(d[i, j]) / np.maximum(1.0, norms[i] * norms[j])
    max_overlap = float(overlaps.max(initial=0.0))
    bad = overlaps > DEFAULT_TOL
    offending = tuple(zip(i[bad].tolist(), j[bad].tolist(), d[i[bad], j[bad]].tolist()))
    report = ConsistencyReport(max_overlap <= DEFAULT_TOL, max_overlap, offending)
    weights = [
        float(n) ** 2 if end else k.norm() ** 2 for k, n, end in zip(chains, norms, ends)
    ]
    return report, weights, d


def consistency_check(dyn: Dynamics, fam: Family) -> ConsistencyReport:
    """Pairwise-orthogonality test of the family's chain kets.

    Each overlap |<c_i|c_j>| is divided by max(1, |c_i| |c_j|), which is 1
    for a normalized initial state: the criterion is absolute, not relative
    to the weights of the two histories (ROADMAP item 1).  An overlap
    exactly at `DEFAULT_TOL` counts as consistent.
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
        _require_event(dyn, t, p)
    weights = born_probabilities(dyn, fam)
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
    if any(p.slice != slc for p in parts):
        raise ValueError("refinement parts live on mixed slices")
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
            if e is not None and e.slice != slc:
                raise ValueError(f"history event at time {t} lives on {e.slice}, not {slc}")
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
    _require_event(dyn, t_final, final_event)
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
