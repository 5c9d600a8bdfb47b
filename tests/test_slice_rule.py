"""The slice rule: every check that a ket, projector or decomposition lives
on the slice where it is used raises one message,
"<what> lives on <its slice>, not <the slice it must live on>".

Each entry point is given an object on a foreign slice of two kinds: the
same time index with another basis, and the same basis at another time
index.  Where the object's own time index selects the slice it is checked
against (a ket on a dynamics), or a `History` ties an event to its time,
another time index is rejected by those time checks before the slice rule
can see it, so only the other basis applies.
"""

import re
from typing import Callable, NamedTuple

import pytest

from qhistories.dynamics import transport
from qhistories.histories import (
    Family,
    History,
    chain_ket,
    conditional_probability,
    infer,
    refine,
)
from qhistories.mzi import (
    BeamSplitterParams,
    NamedFamilyId,
    build_nested_mzi,
    named_family,
    source_ket,
)
from qhistories.probes import ProbeStrength, evolve_with_probes, outcome_distribution
from qhistories.statespace import (
    PDI,
    TimeSlice,
    _require_slice,
    basis_ket,
    inner,
    pdi_validate,
    projector_from_labels,
    slice_pdi,
)
from qhistories.weak import TwoStateVector, backward_state, two_state_vector

DYN = build_nested_mzi(BeamSplitterParams(1 / 3))
S0 = source_ket(DYN)
T0, T2, T4 = DYN.slices[0], DYN.slices[2], DYN.slices[4]
F4 = projector_from_labels(T4, {"F"})
F_A = named_family(NamedFamilyId.F_A, BeamSplitterParams(1 / 3))[1]


def ket(slc):
    return basis_ket(slc, slc.basis[0])


def label(slc):
    return projector_from_labels(slc, {slc.basis[0]})


class Case(NamedTuple):
    what: str
    home: TimeSlice  # the slice the entry point works on
    call: Callable[[TimeSlice], object]  # hands it an object on the given slice
    other_time: bool = True  # whether another time index reaches the rule
    home_is_checked: bool = False  # the home object is checked against it


CASES = {
    "inner": Case("ket", T2, lambda f: inner(ket(T2), ket(f))),
    "pdi_validate": Case("part", T2, lambda f: pdi_validate([label(T2), label(f)])),
    "PDI": Case("part", T2, lambda f: PDI(T2, slice_pdi(f).parts)),
    "transport": Case("ket", T0, lambda f: transport(DYN, ket(f), 2), other_time=False),
    "chain_ket": Case(
        "event", T2, lambda f: chain_ket(DYN, S0, History(((2, label(f)),))), other_time=False
    ),
    "conditional_probability": Case(
        "event", T2, lambda f: conditional_probability(DYN, F_A, [(4, F4)], [(2, label(f))])
    ),
    "infer": Case("final event", T4, lambda f: infer(DYN, S0, label(f), label(T2))),
    "complete_family": Case(
        "event",
        T2,
        lambda f: Family(S0, (History(((2, label(T2)),)), History(((2, label(f)),))), True),
        other_time=False,
    ),
    "refine_parts": Case("part", T2, lambda f: refine(F_A, 2, [label(T2), label(f)])),
    "refine_history_event": Case(
        "history event",
        T2,
        lambda f: refine(F_A, 2, slice_pdi(f).parts),
        other_time=False,
        home_is_checked=True,
    ),
    "TwoStateVector": Case("backward ket", T2, lambda f: TwoStateVector(ket(T2), ket(f))),
    "weak_value": Case(
        "projector", T2, lambda f: two_state_vector(DYN, S0, ket(T4), 2).weak_value(label(f))
    ),
    "backward_state": Case("final ket", T4, lambda f: backward_state(DYN, ket(f), 2)),
    "outcome_distribution": Case(
        "detector decomposition",
        T4,
        lambda f: outcome_distribution(
            evolve_with_probes(DYN, (), ProbeStrength(0.0), S0), slice_pdi(f)
        ),
    ),
}

PARAMS = [
    pytest.param(name, kind, id=f"{name}-{kind}")
    for name, case in CASES.items()
    for kind in (("basis", "time") if case.other_time else ("basis",))
]


def foreign(home, kind):
    if kind == "basis":
        return TimeSlice(home.time_index, tuple(f"X{i}" for i in range(home.dim)))
    return TimeSlice(home.time_index + 1, home.basis)


@pytest.mark.parametrize("name, kind", PARAMS)
def test_foreign_slice_is_rejected_with_the_one_message(name, kind):
    case = CASES[name]
    f = foreign(case.home, kind)
    lives, expected = (case.home, f) if case.home_is_checked else (f, case.home)
    want = f"{case.what} lives on {lives}, not {expected}"
    with pytest.raises(ValueError, match=re.escape(want)):
        case.call(f)



def test_an_equal_slice_that_is_another_object_passes():
    twin = TimeSlice(T2.time_index, T2.basis)
    assert twin == T2 and twin is not T2
    assert _require_slice(label(twin), T2, "event") is T2
    assert inner(ket(T2), ket(twin)) == 1
    assert chain_ket(DYN, S0, History(((2, label(twin)),))).slice is T2
    tsv = two_state_vector(DYN, S0, ket(T4), 2)
    assert tsv.weak_value(label(twin)) == tsv.weak_value(label(T2))
