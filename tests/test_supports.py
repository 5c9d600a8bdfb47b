"""Label projectors record their support, and the projector-algebra checks
read it: `_match` (through `conditional_probability`), `refine`,
`complement`, `pdi_validate` and `outcome_distribution`.

Each check is run on random channel subsets: once on label projectors,
which take the support path, and once on the same projectors rebuilt as a
caller's `Projector` with a symmetric 1e-200 off-diagonal pair.  Those
record no support and take the dense path, and every verdict, error, tree
and cell must come out the same.  `refine` also takes each mixed pairing
of events and parts.
"""

import functools
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qhistories.dynamics import Dynamics, StepUnitary
from qhistories.histories import Family, History, conditional_probability, refine
from qhistories.probes import ProbeSpec, ProbeStrength, evolve_with_probes, outcome_distribution
from qhistories.statespace import (
    PDI, Ket, Projector, TimeSlice, identity_projector, pdi_validate, projector_from_labels,
)

DIMS = (3, 8, 64)
#: The off-diagonal entries that keep a rebuilt projector off the support path.
PAIR = 1e-200


@functools.cache
def _dynamics(d: int) -> Dynamics:
    """Three slices of `d` channels joined by seeded Haar steps."""
    rng = np.random.default_rng(d)
    slices = [TimeSlice(t, tuple(f"c{i}" for i in range(d))) for t in range(3)]
    steps = []
    for a, b in zip(slices, slices[1:]):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        steps.append(StepUnitary(a, b, q * (np.diag(r) / np.abs(np.diag(r)))))
    return Dynamics(tuple(slices), tuple(steps))


def _label(slc: TimeSlice, channels, name: str) -> Projector:
    """The label projector onto `channels` (the zero projector if none)."""
    if not channels:
        zero = identity_projector(slc).complement()
        return Projector(slc, zero.matrix, name)
    return projector_from_labels(slc, [slc.basis[i] for i in channels], name)


def _dense(p: Projector) -> Projector:
    """`p` rebuilt with a 1e-200 pair at (0, 1): it records no support."""
    m = np.array(p.matrix)
    m[0, 1] = m[1, 0] = PAIR
    q = Projector(p.slice, m, p.name)
    assert p._on is not None and q._on is None
    return q


def _outcome(call):
    """The result of `call()`, or the type and message of its ValueError."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _partition(draw, d: int, within=None):
    """A random partition of `within` (default: every channel) into
    non-empty groups, each a sorted list of channel indices."""
    chans = list(range(d)) if within is None else sorted(within)
    k = draw(st.integers(1, min(4, len(chans))))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=len(chans), max_size=len(chans)))
    groups = [[c for c, o in zip(chans, owner) if o == g] for g in range(k)]
    return [g for g in groups if g]


def _subsets(d: int):
    return st.sets(st.integers(0, d - 1), max_size=d)


@st.composite
def _family(draw):
    """A consistent family on a random dynamics: one history per part of a
    random label partition at t1, none with an event at t2."""
    d = draw(st.sampled_from(DIMS))
    dyn = _dynamics(d)
    groups = draw(_partition(d))
    parts = [_label(dyn.slices[1], g, f"P{i}") for i, g in enumerate(groups)]
    amps = np.random.default_rng(d).normal(size=d) + 1.0
    initial = Ket(dyn.slices[0], amps / np.linalg.norm(amps))
    fam = Family(initial, tuple(History(((1, p),)) for p in parts))
    return d, dyn, groups, fam


def _dense_family(fam: Family) -> Family:
    """`fam` with every event rebuilt by `_dense`."""
    return Family(fam.initial, tuple(
        History(tuple((t, _dense(p)) for t, p in h.events)) for h in fam.histories
    ))


def _tree(fam: Family) -> list[list[tuple[int, str]]]:
    return [[(t, p.name) for t, p in h.events] for h in fam.histories]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_match_verdicts_agree_with_the_dense_path(data):
    d, dyn, groups, fam = data.draw(_family())
    parts = {tuple(g) for g in groups}

    def events(label):
        # mostly events the family can express: a union of its parts at t1,
        # every channel at t2 (where it has no event); else any channel subset
        t = data.draw(st.sampled_from([1, 2]), label=f"{label} time")
        if not data.draw(st.integers(0, 3), label=f"{label} kind"):
            channels = data.draw(_subsets(d), label=f"{label} channels")
        elif t == 1:
            chosen = data.draw(st.sets(st.sampled_from(sorted(parts)), min_size=1), label=label)
            channels = {c for g in chosen for c in g}
        else:
            channels = range(d)
        return [(t, _label(dyn.slices[t], sorted(channels), label))]

    condition, query = events("condition"), events("query")
    support = _outcome(lambda: conditional_probability(dyn, fam, condition, query))
    dense = _outcome(lambda: conditional_probability(
        dyn, fam, [(t, _dense(p)) for t, p in condition], [(t, _dense(p)) for t, p in query]
    ))
    assert support == dense


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_refine_trees_and_overlaps_agree_with_the_dense_path(data):
    d, dyn, groups, fam = data.draw(_family())
    t = data.draw(st.sampled_from([1, 2]))
    # the parts split one family part (t1) or the identity (t2), or are random
    # channel subsets, which may overlap and may split nothing
    if data.draw(st.booleans()):
        within = data.draw(st.sampled_from(groups)) if t == 1 else range(d)
        chosen = data.draw(_partition(d, within))
    else:
        chosen = data.draw(st.lists(_subsets(d), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        chosen.append(sorted(data.draw(_subsets(d))))
    parts = [_label(dyn.slices[t], sorted(g), f"R{i}") for i, g in enumerate(chosen)]
    # label or dense family events (the identity where a history has none)
    # against label or dense parts: every pairing gives the dense tree
    fams = (fam, _dense_family(fam))
    part_sets = (parts, [_dense(p) for p in parts])
    dense = _outcome(lambda: _tree(refine(fams[1], t, part_sets[1])))
    for f, ps in itertools.product(fams, part_sets):
        assert _outcome(lambda: _tree(refine(f, t, ps))) == dense


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_complement_bytes_and_name_agree_with_the_dense_path(data):
    d = data.draw(st.sampled_from(DIMS))
    slc = _dynamics(d).slices[1]
    channels = sorted(data.draw(_subsets(d)))
    p = _label(slc, channels, "P")
    c = p.complement()
    assert c.matrix.tobytes() == (np.eye(d, dtype=complex) - p.matrix).tobytes()
    rest = [lab for i, lab in enumerate(slc.basis) if i not in channels]
    assert c.name == ("+".join(f"{lab}1" for lab in rest) if rest else "0@t1")
    assert c._on.tolist() == [i not in channels for i in range(d)]
    # the dense path computes the same matrix, less the pair; its name is not
    # a label name because its source is not a label projector
    cd = _dense(p).complement()
    m = np.array(cd.matrix)
    m[0, 1] = m[1, 0] = 0.0
    assert (m.tobytes(), cd.name) == (c.matrix.tobytes(), "~P")


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_pdi_reports_agree_with_the_dense_path(data):
    d = data.draw(st.sampled_from(DIMS))
    slc = _dynamics(d).slices[1]
    if data.draw(st.booleans()):
        chosen = data.draw(_partition(d))
    else:
        chosen = [sorted(s) for s in data.draw(st.lists(_subsets(d), min_size=1, max_size=5))]
    parts = [_label(slc, g, f"P{i}") for i, g in enumerate(chosen)]
    support = pdi_validate(parts)
    dense = pdi_validate([_dense(p) for p in parts])
    assert (support.ok, support.worst) == (dense.ok, dense.worst)
    if support.ok:
        # the pairs are the dense path's only residual
        assert support.max_residual == 0.0 and 0.0 < dense.max_residual <= 10 * PAIR
    else:
        assert support.max_residual == dense.max_residual


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_outcome_cells_agree_with_the_dense_path(data):
    d = data.draw(st.sampled_from(DIMS))
    dyn = _dynamics(d)
    watched = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=3))
    probes = [
        ProbeSpec(f"p{i}", frozenset({(1 + i % 2, dyn.slices[1].basis[c])}))
        for i, c in enumerate(watched)
    ]
    initial = Ket(dyn.slices[0], np.ones(d) / np.sqrt(d))
    js = evolve_with_probes(dyn, probes, ProbeStrength(0.3), initial)
    groups = data.draw(_partition(d))
    parts = [_label(js.slice, g, f"D{i}") for i, g in enumerate(groups)]
    support = outcome_distribution(js, PDI(js.slice, parts))
    dense = outcome_distribution(js, PDI(js.slice, [_dense(p) for p in parts]))
    assert support._keys == dense._keys
    assert support._cells.tobytes() == dense._cells.tobytes()

