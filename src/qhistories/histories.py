"""History families, chain kets, consistency, and conditional inference.

A history is a sequence of (time, projector) events; times without an event
carry the identity implicitly.  A family bundles histories with a pure
initial state.  Probabilities exist only for consistent families: the chain
kets of distinct histories must be mutually orthogonal.  Inconsistent
families are not an error of construction, only of *use*: asking them for
probabilities raises, with the offending overlaps attached.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dynamics import Dynamics, _carry, _require_on, transport
from .statespace import (
    _STACK, Ket, Projector, TimeSlice, _apply_each, _distance, _negligible, _overlap, _rank,
    _require_slice, _sum, _trusted, identity_projector,
)


@dataclass(frozen=True, eq=False)
class History:
    """Events at strictly increasing time indices; omitted times mean I."""

    events: tuple[tuple[int, Projector], ...]

    def __post_init__(self):
        events = []
        for ev in self.events if hasattr(self.events, "__iter__") else [self.events]:
            t, p = ev if isinstance(ev, tuple) and len(ev) == 2 else (None, None)
            if not isinstance(p, Projector):
                raise ValueError(f"history event {ev!r} is not a (time, projector) pair")
            try:
                events.append((operator.index(t), p))
            except TypeError:
                raise ValueError(f"history event time {t!r} is not an integer") from None
        events = tuple(events)
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
    is orthogonal to none.  A rank is exact (`_rank`).  `memo` keeps each
    (P, Q) verdict for this call only.
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
                    memo[key] = _negligible(_overlap(*key), "residual")
                if memo[key]:
                    break
            else:
                return f"histories {i} and {j} overlap"
    ranks = {p: _rank(p) for p in {p for e in events for p in e.values()}}
    rank = sum(
        math.prod(ranks[e[t]] if t in e else slc.dim for t, slc in slices.items())
        for e in events
    )
    dim = math.prod(slc.dim for slc in slices.values())
    return "" if rank == dim else f"ranks sum to {rank}, not {dim}"


def _walk(
    dyn: Dynamics, v0: np.ndarray, t0: int, histories: Sequence[Sequence[tuple[int, Projector]]]
) -> np.ndarray:
    """The raw chain-ket amplitudes of the event sequences in `histories`,
    walked from the amplitudes `v0` at time `t0`: one C-contiguous (n, d)
    array, row i for sequence i.

    An index pass first files every event into a prefix tree, one level per
    depth: a node's children by (time, projector), and the distinct carries
    (parent, parent's time, time) its children need.  Each new child's
    event is checked against its slice, so every check precedes every
    product.  The walk then goes down the tree one depth at a time, each
    depth's nodes one C-contiguous (k, d) array, the root's `v0[None]`:
    - It carries each parent to each time once (`_carry`): fewer than
      `_STACK` carries by lone `U @ v` products, more by gathering the
      parents of the carries over the same steps with one index into `x` of
      shape (k, d, 1), carried with `steps[j].matrix @ x`, which numpy runs
      as one gemv per row, with the bits of a lone `U @ v`.  A carry runs
      backward only for a `chain_ket` whose first event precedes its ket.
    - It applies the depth's events to their carried rows (`_apply_each`).
    If every sequence ends at the deepest level in first-visit order, the
    result is that level's array itself, else one gather over all levels.
    Every amplitude thus has the bits of an independent chain.
    """
    depth = max(map(len, histories))
    levels = [({}, {}, []) for _ in range(depth)]
    leaves = []
    ordered = True
    for i, events in enumerate(histories):
        node, s = 0, t0
        for (children, carries, kids), (t, p) in zip(levels, events):
            key = (node, t, p)
            child = children.get(key)
            if child is None:
                _require_slice(p, dyn.slice_at(t), "event")
                child = children[key] = len(kids)
                kids.append((carries.setdefault((node, s, t), len(carries)), p))
            node, s = child, t
        leaves.append((len(events), node))
        ordered = ordered and len(events) == depth and node == i
    x = v0[None]
    nodes = [x]
    for _, carries, kids in levels:
        if len(carries) < _STACK:
            y = np.array([_carry(dyn, x[parent], s, t) for parent, s, t in carries])
        else:
            spans = {}
            for slot, (parent, s, t) in enumerate(carries):
                slots, parents = spans.setdefault((s, t), ([], []))
                slots.append(slot)
                parents.append(parent)
            y = np.empty((len(carries), len(v0)), dtype=complex)
            for (s, t), (slots, parents) in spans.items():
                y[slots] = _carry(dyn, x[parents][..., None], s, t)[..., 0]
        x = _apply_each(kids, y)
        nodes.append(x)
    if ordered:
        return x
    offsets = np.cumsum([0] + [len(level) for level in nodes[:-1]]).tolist()
    return np.concatenate(nodes)[[offsets[d] + node for d, node in leaves]]


def chain_ket(
    dyn: Dynamics, initial: Ket, h: History, *, _tree: dict[History, int] | None = None
) -> Ket:
    """Alternate unitary transport and event projection (`_apply`) along a
    history.

    The result lives on the slice of the last event and is in general
    sub-normalized; its squared norm is the history's extended Born weight.
    An event-free history returns `initial` itself; any other runs `_walk`
    on one history and reads row 0 of its one-row array.

    `_tree` maps the histories of a family to their rows in the family's
    walked C; `_decoherence` is the only caller that passes it, and the call
    then returns `h`'s row number, with no walk and no `Ket`.  It exists so
    that a tracer of the public functions (perfbench's
    `histories.chain_ket_*` metrics) still sees one chain ket per history,
    and goes with ROADMAP item "One benchmark-only change".
    """
    if _tree is not None:
        return _tree[h]
    _require_on(dyn, initial)
    if not h.events:
        return initial
    v = _walk(dyn, initial.amplitudes, initial.slice.time_index, [h.events])[0]
    return _trusted(Ket, slice=dyn.slice_at(h.events[-1][0]), amplitudes=v, name="")


@dataclass(frozen=True)
class ConsistencyReport:
    """Pairwise chain-ket overlaps of a family.

    `max_overlap` is the largest |<c_i|c_j>| / max(1, |c_i| |c_j|), an
    absolute measure for a normalized initial state (see consistency_check);
    `offending_pairs` holds the raw inner products of the pairs exceeding
    the probability cut, in row-major (i < j) order.
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

    C is the array of one walk of the family's prefix tree (`_walk`), so
    each distinct event prefix is checked and projected once; the initial
    ket is checked once, and no `Ket` is built for a history that ends at
    the latest event time.  Each history still takes one `chain_ket` call,
    which returns its row number (see `chain_ket`'s `_tree`).  Only rows
    that end before the latest event time are transported.  The weights
    are the squared norms of the un-carried rows; D's diagonal differs in
    the last bit.  Everything but D is read before D's product, and the
    offending pairs only when some overlap is past the cut.
    """
    initial, hists = fam.initial, fam.histories
    _require_on(dyn, initial)
    t0 = initial.slice.time_index
    ends = [h.events[-1][0] if h.events else t0 for h in hists]
    t_max = max(ends)
    c = _walk(dyn, initial.amplitudes, t0, [h.events for h in hists])
    rows = dict(zip(hists, range(len(hists))))
    for h in hists:
        chain_ket(dyn, initial, h, _tree=rows)
    short = {i: float(np.linalg.norm(c[i])) for i, t in enumerate(ends) if t != t_max}
    for i in short:
        k = _trusted(Ket, slice=dyn.slices[ends[i]], amplitudes=c[i], name="")
        c[i] = transport(dyn, k, t_max).amplitudes
    # Each row's norm by the dots np.linalg.norm runs, read before D: on an
    # AVX-512 Xeon (scipy-openblas 0.3.31, numpy 2.4.6, one BLAS thread) the
    # 144 row dots of a 72 x 64 C take 8.5-11 us alone but 38-45 us right
    # after D's zgemm, as if it left the vector state dirty.  Keep them here.
    re, im = c.real, c.imag
    norms = np.sqrt((re[:, None] @ re[..., None]).ravel() + (im[:, None] @ im[..., None]).ravel())
    weights = [short.get(i, n) ** 2 for i, n in enumerate(norms.tolist())]
    pairs = ~np.tri(len(hists), dtype=bool)  # i < j
    d = c.conj() @ c.T
    ratio = np.abs(d)
    if norms.max() > 1.0:  # else every max(1, |c_i| |c_j|) is 1
        ratio /= np.maximum(1.0, np.multiply.outer(norms, norms))
    max_overlap = float(ratio[pairs].max(initial=0.0))
    consistent, offending = _negligible(max_overlap, "probability"), ()
    if not consistent:
        i, j = np.nonzero(pairs & ~_negligible(ratio, "probability"))  # row-major
        offending = tuple(zip(i.tolist(), j.tolist(), d[i, j].tolist()))
    return ConsistencyReport(consistent, max_overlap, offending), weights, d


def consistency_check(dyn: Dynamics, fam: Family) -> ConsistencyReport:
    """Pairwise-orthogonality test of the family's chain kets.

    Each overlap |<c_i|c_j>| is divided by max(1, |c_i| |c_j|), which is 1
    for a normalized initial state: the criterion is absolute, not relative
    to the weights of the two histories (ROADMAP item "Verdicts that know
    their resolution").  An overlap exactly at the probability cut counts as
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
            if _negligible(_distance(ev, p), "residual"):
                memo[key] = True
            elif _negligible(_overlap(ev, p), "residual"):
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
    if _negligible(cond_mass, "probability"):
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
    must live on the parts' slice.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("refinement needs at least one part")
    slc = parts[0].slice
    if slc.time_index != time_index:
        raise ValueError(f"parts live at time {slc.time_index}, not {time_index}")
    for p in parts[1:]:
        _require_slice(p, slc, "part")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not _negligible(_overlap(parts[i], parts[j]), "residual"):
                raise ValueError(f"refinement parts {i} and {j} overlap")
    total = _sum(parts)
    t = slc.time_index
    new_histories: list[History] = []
    splits: dict[Projector | None, bool] = {}
    for h in fam.histories:
        e = h.event_at(t)
        if e not in splits:
            ev = identity_projector(slc) if e is None else e
            _require_slice(ev, slc, "history event")
            splits[e] = _negligible(_distance(ev, total), "residual")
        if splits[e]:
            # a valid history split at a checked slice is valid; built as `_trusted` would
            k = bisect.bisect_left(h.events, t, key=operator.itemgetter(0))
            before, after = h.events[:k], h.events[k + (e is not None):]
            for p in parts:
                split = object.__new__(History)
                split.__dict__["events"] = (*before, (t, p), *after)
                new_histories.append(split)
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
    if _negligible(p_final, "probability"):
        raise VanishingProbabilityError(
            f"final event has vanishing forward probability ({p_final:.3g})", p_final
        )
    if not report.consistent:
        return Incommensurate(report)
    return Defined(weights[0] / (weights[0] + weights[1]))
