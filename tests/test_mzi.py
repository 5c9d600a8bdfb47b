import itertools
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qhistories import mzi
from qhistories.dynamics import step_validate, transport
from qhistories.histories import Family, History, born_probabilities, consistency_check
from qhistories.mzi import (
    BeamSplitterParams,
    NamedFamilyId,
    build_nested_mzi,
    build_no_bs34,
    named_family,
    source_ket,
    time_slices,
)
from qhistories.statespace import basis_ket, inner, projector_from_labels

GRID = [round(0.1 * k, 10) for k in range(1, 10)]


@pytest.mark.parametrize("alpha2", [0.0, 1.0, -0.2, 1.7])
def test_degenerate_ratios_rejected(alpha2):
    with pytest.raises(ValueError, match="0 < alpha2 < 1"):
        BeamSplitterParams(alpha2)


def test_inner_loop_sends_d_entirely_to_h():
    dyn = build_nested_mzi(BeamSplitterParams(1 / 3))
    out = transport(dyn, basis_ket(dyn.slices[1], "D"), 3)
    np.testing.assert_allclose(out.amplitudes, [0, 0, 1], atol=1e-14)


@pytest.mark.parametrize("alpha2", GRID)
def test_d_to_inner_output_arm_vanishes_for_all_ratios(alpha2):
    dyn = build_nested_mzi(BeamSplitterParams(alpha2))
    out = transport(dyn, basis_ket(dyn.slices[1], "D"), 3)
    assert abs(out.amplitude("E")) <= 1e-14


def test_state_before_last_splitter():
    alpha2 = 1 / 3
    dyn = build_nested_mzi(BeamSplitterParams(alpha2))
    out = transport(dyn, source_ket(dyn), 3)
    np.testing.assert_allclose(
        out.amplitudes, [np.sqrt(alpha2), 0, np.sqrt(1 - alpha2)], atol=1e-14
    )


def test_output_amplitudes_at_special_ratio():
    dyn = build_nested_mzi(BeamSplitterParams(1 / 3))
    out = transport(dyn, source_ket(dyn), 4)
    np.testing.assert_allclose(
        out.amplitudes, [1 / 3, np.sqrt(2) / 3, np.sqrt(2 / 3)], atol=1e-14
    )


def test_lower_loop_family_consistent_only_at_one_ratio():
    # scan a fine grid: the overlap vanishes only around alpha2 = 1/3
    consistent_points = []
    for k in range(1, 1000):
        alpha2 = k / 1000
        dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(alpha2))
        if consistency_check(dyn, fam).consistent:
            consistent_points.append(alpha2)
    assert consistent_points == []  # 1/3 is not on the millesimal grid
    dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(1 / 3))
    assert consistency_check(dyn, fam).consistent


@pytest.mark.parametrize("alpha2", GRID)
def test_upper_loop_family_never_consistent(alpha2):
    dyn, fam = named_family(NamedFamilyId.F_B, BeamSplitterParams(alpha2))
    report = consistency_check(dyn, fam)
    assert not report.consistent
    beta2 = 1 - alpha2
    assert report.max_overlap == pytest.approx(
        (beta2 / 2) * (alpha2 + beta2 / 2), abs=1e-12
    )


class TestNoBS34:
    def test_steps_are_unitary(self):
        dyn = build_no_bs34(BeamSplitterParams(0.3))
        assert step_validate(dyn).ok

    def test_straight_through_output(self):
        alpha2 = 0.3
        dyn = build_no_bs34(BeamSplitterParams(alpha2))
        out = transport(dyn, source_ket(dyn), 4)
        a, b, r = np.sqrt(alpha2), np.sqrt(1 - alpha2), np.sqrt(0.5)
        # oracle: straight routing B->H->H and C->E->F, A->A->G
        np.testing.assert_allclose(out.amplitudes, [r * b, a, r * b], atol=1e-14)

    @pytest.mark.parametrize("alpha2", GRID)
    def test_three_path_family_is_consistent(self, alpha2):
        dyn, fam = named_family(NamedFamilyId.EQ26_NO_BS34, BeamSplitterParams(alpha2))
        assert consistency_check(dyn, fam).consistent

    def test_three_path_weights(self):
        alpha2 = 0.3
        beta2 = 1 - alpha2
        dyn, fam = named_family(NamedFamilyId.EQ26_NO_BS34, BeamSplitterParams(alpha2))
        weights = born_probabilities(dyn, fam)
        by_label = {h.label(): w for h, w in weights.items()}
        assert by_label["A2,G4"] == pytest.approx(alpha2, abs=1e-12)
        assert by_label["B2,H4"] == pytest.approx(beta2 / 2, abs=1e-12)
        assert by_label["C2,F4"] == pytest.approx(beta2 / 2, abs=1e-12)
        for label, w in by_label.items():
            if label not in ("A2,G4", "B2,H4", "C2,F4"):
                assert w <= 1e-12
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


FAMILY_LABELS = {
    "EQ8_FULL": (True, ["A2,F4", "B2+C2,F4", "G4+H4"]),
    "EQ12_DETECTORS": (True, ["F4", "G4", "H4"]),
    "F_A": (False, ["A2,F4", "B2+C2,F4"]),
    "F_A_PRIME": (
        False,
        [
            "A1,A2,A3,F4", "A1,A2,E3,F4", "A1,A2,H3,F4",
            "D1,A2,A3,F4", "D1,A2,E3,F4", "D1,A2,H3,F4",
            "Q1,A2,A3,F4", "Q1,A2,E3,F4", "Q1,A2,H3,F4",
            "A1,B2+C2,A3,F4", "A1,B2+C2,E3,F4", "A1,B2+C2,H3,F4",
            "D1,B2+C2,A3,F4", "D1,B2+C2,E3,F4", "D1,B2+C2,H3,F4",
            "Q1,B2+C2,A3,F4", "Q1,B2+C2,E3,F4", "Q1,B2+C2,H3,F4",
        ],
    ),
    "F_B": (False, ["B2,F4", "A2+C2,F4"]),
    "F_ABC": (False, ["A2,F4", "B2,F4", "C2,F4"]),
    "F_C": (False, ["C2,F4", "A2+B2,F4"]),
    "EQ25_BACKWARD": (False, ["[F4@t2],F4", "~[F4@t2],F4"]),
    "EQ26_NO_BS34": (
        True,
        ["A2,F4", "A2,G4", "A2,H4", "B2,F4", "B2,G4", "B2,H4", "C2,F4", "C2,G4", "C2,H4"],
    ),
}


class TestNamedFamilies:
    @pytest.mark.parametrize("fid", list(NamedFamilyId), ids=lambda f: f.name)
    def test_straight_arm_family_structure(self, fid):
        complete, labels = FAMILY_LABELS[fid.name]
        dyn, fam = named_family(fid, BeamSplitterParams(0.4))
        assert [h.label() for h in fam.histories] == labels
        assert fam.complete is complete

    @pytest.mark.parametrize("fid", list(NamedFamilyId), ids=lambda f: f.name)
    def test_histories_are_the_checked_ones(self, fid):
        dyn, fam = named_family(fid, BeamSplitterParams(0.4))
        for h in fam.histories:
            assert History(h.events).events == h.events
            assert all(type(t) is int for t in h.times)
            assert all(p.slice is dyn.slices[t] for t, p in h.events)

    def test_models_share_one_set_of_slices(self):
        slices = time_slices()
        for build in (build_nested_mzi, build_no_bs34):
            for alpha2 in (0.2, 0.7):
                assert build(BeamSplitterParams(alpha2)).slices == slices
        assert [str(s) for s in slices] == [
            "t0{S,R,Q}", "t1{A,D,Q}", "t2{A,B,C}", "t3{A,E,H}", "t4{F,G,H}"
        ]

    def test_unknown_family_id_rejected(self):
        with pytest.raises(ValueError, match="unknown family id"):
            named_family("F_A", BeamSplitterParams(0.4))

    def test_detector_family_weights(self):
        alpha2 = 0.4
        beta2 = 1 - alpha2
        dyn, fam = named_family(NamedFamilyId.EQ12_DETECTORS, BeamSplitterParams(alpha2))
        weights = born_probabilities(dyn, fam)
        refs = [alpha2**2, alpha2 * beta2, beta2]
        for h, ref in zip(fam.histories, refs):
            assert weights[h] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("alpha2", GRID)
    def test_backward_wave_family_is_consistent(self, alpha2):
        dyn, fam = named_family(NamedFamilyId.EQ25_BACKWARD, BeamSplitterParams(alpha2))
        assert consistency_check(dyn, fam).consistent

    def test_backward_wave_family_structure(self):
        dyn, fam = named_family(NamedFamilyId.EQ25_BACKWARD, BeamSplitterParams(0.3))
        first, second = fam.histories
        (t, p), _ = first.events
        assert t == 2 and np.trace(p.matrix).real == pytest.approx(1.0)
        (_, q), _ = second.events
        assert np.trace(q.matrix).real == pytest.approx(2.0)
        # the rank-one event projects onto the backward-evolved output state
        back = transport(dyn, basis_ket(dyn.slices[4], "F"), 2)
        np.testing.assert_allclose(
            p.matrix @ back.amplitudes, back.amplitudes, atol=1e-12
        )

    def test_full_family_is_complete_and_normalized(self):
        dyn, fam = named_family(NamedFamilyId.EQ8_FULL, BeamSplitterParams(0.61))
        assert fam.complete
        weights = born_probabilities(dyn, fam)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


EDGE_RATIOS = [1e-6, 0.001, 1 / 3, 0.5, 0.999, 1 - 1e-6, 1 - 1e-11]


def closed_form_steps(alpha2, variant):
    """The four step matrices written entry by entry: rows are the target
    channels, columns the source channels, each in slice-basis order."""
    a, b, r = math.sqrt(alpha2), math.sqrt(1 - alpha2), 1.0 / math.sqrt(2.0)
    steps = [
        [[a, -b, 0], [b, a, 0], [0, 0, 1]],  # S,R,Q -> A,D,Q
        [[1, 0, 0], [0, r, r], [0, r, -r]],  # A,D,Q -> A,B,C
    ]
    if variant == "nested":
        steps += [
            [[1, 0, 0], [0, -r, r], [0, r, r]],  # A,B,C -> A,E,H
            [[a, b, 0], [b, -a, 0], [0, 0, 1]],  # A,E,H -> F,G,H
        ]
    else:
        steps += [
            [[1, 0, 0], [0, 0, 1], [0, 1, 0]],  # B -> H, C -> E
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],  # A -> G, E -> F
        ]
    return [np.array(m, dtype=complex) for m in steps]


class TestImportTables:
    """The steps written out at each ratio, and the ratio-independent parts
    built at import: the label-projector table and the shared named
    families."""

    @pytest.mark.parametrize("variant", ["nested", "no_bs34"])
    def test_steps_are_the_closed_forms_bit_for_bit(self, variant):
        build = build_nested_mzi if variant == "nested" else build_no_bs34
        for alpha2 in EDGE_RATIOS + GRID + [k / 97 for k in range(1, 97)]:
            dyn = build(BeamSplitterParams(alpha2))
            want = closed_form_steps(alpha2, variant)
            for j, st in enumerate(dyn.steps):
                assert st.matrix.tobytes() == want[j].tobytes(), (alpha2, j)
                assert st.matrix.flags.writeable is False

    def test_label_table_holds_every_label_projector(self):
        assert len(mzi._LABELS) == 35
        for slc in time_slices():
            for n in range(1, 4):
                for labels in itertools.combinations(slc.basis, n):
                    got = mzi._label_projector(slc.time_index, labels[::-1])
                    want = projector_from_labels(slc, labels)
                    assert got.slice is slc
                    assert got.name == want.name
                    assert got.matrix.tobytes() == want.matrix.tobytes()
                    assert got._on.tobytes() == want._on.tobytes()
                    assert not got.matrix.flags.writeable and not got._on.flags.writeable

    def test_tables_reject_assignment(self):
        p = mzi._label_projector(2, "A")
        with pytest.raises(TypeError):
            mzi._LABELS[2, frozenset("A")] = p
        with pytest.raises(TypeError):
            mzi._SHARED[NamedFamilyId.F_A] = None

    @pytest.mark.parametrize(
        "fid", [f for f in NamedFamilyId if f is not NamedFamilyId.EQ25_BACKWARD],
        ids=lambda f: f.name,
    )
    def test_shared_families_are_their_event_rows(self, fid):
        fams = {named_family(fid, BeamSplitterParams(a2))[1] for a2 in EDGE_RATIOS}
        assert len(fams) == 1
        (fam,) = fams
        assert fam is mzi._SHARED[fid]
        assert fam.complete is FAMILY_LABELS[fid.name][0]
        assert fam.initial.amplitudes.tobytes() == np.array([1, 0, 0], dtype=complex).tobytes()
        assert [[(t, p.name) for t, p in h.events] for h in fam.histories] == [
            [(t, projector_from_labels(time_slices()[t], ch).name) for t, ch in row]
            for row in mzi._EVENTS[fid]
        ]
        with pytest.raises(FrozenInstanceError):
            fam.histories = ()

    def test_backward_family_is_built_per_call(self):
        p = BeamSplitterParams(0.3)
        first = named_family(NamedFamilyId.EQ25_BACKWARD, p)[1]
        assert named_family(NamedFamilyId.EQ25_BACKWARD, p)[1] is not first

    @pytest.mark.parametrize(
        "fid", sorted(mzi._COMPLETE, key=lambda f: f.name), ids=lambda f: f.name
    )
    def test_complete_family_missing_a_history_is_rejected(self, fid):
        fam = mzi._SHARED[fid]
        for i in range(len(fam.histories)):
            rest = fam.histories[:i] + fam.histories[i + 1:]
            with pytest.raises(ValueError, match="does not cover the identity"):
                Family(fam.initial, rest, complete=True)
