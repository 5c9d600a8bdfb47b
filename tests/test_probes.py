import ast
import math
import pickle
import re
from copy import copy as shallow_copy, deepcopy
from fractions import Fraction
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from _closedforms import (
    expected_single_watcher_branches,
    expected_split_watcher_branches,
)
from test_histories import haar_dynamics, haar_unitary

import qhistories.probes as probes_module
from qhistories.dynamics import Dynamics, StepUnitary
from qhistories.histories import VanishingProbabilityError
from qhistories.mzi import BeamSplitterParams, build_nested_mzi, source_ket
from qhistories.probes import (
    BUILTIN_ORDER,
    BranchComponent,
    JointState,
    OutcomeDistribution,
    ProbeSpec,
    ProbeStrength,
    _kappa_labels,
    _kappa_order,
    branch_components,
    coincidence_support,
    evolve_with_probes,
    outcome_distribution,
    sample,
    standard_probes,
)
from qhistories.statespace import (
    _CUTS,
    DEFAULT_TOL,
    PDI,
    Ket,
    Projector,
    TimeSlice,
    _negligible,
    _norms2,
    projector_from_ket,
    projector_from_labels,
    slice_pdi,
)


def model(alpha2=1 / 3):
    dyn = build_nested_mzi(BeamSplitterParams(alpha2))
    return dyn, source_ket(dyn)


def detector_pdi(dyn):
    slc = dyn.slices[4]
    return PDI(slc, tuple(projector_from_labels(slc, {lab}) for lab in slc.basis))


def kron_oracle(dyn, probes, eps, initial, upto=None):
    """Independent reference evolution with explicit full-space matrices."""
    n = len(probes)
    big = 2**n
    z, e = math.sqrt(1 - eps), math.sqrt(eps)
    rot = np.array([[z, -e], [e, z]], dtype=complex)

    def bit_op(mat, bit):
        return np.kron(
            np.kron(np.eye(2 ** (n - 1 - bit)), mat), np.eye(2**bit)
        )

    def coupling_matrix(slc, label, bit):
        full = np.zeros((slc.dim * big, slc.dim * big), dtype=complex)
        for ch in range(slc.dim):
            sel = np.zeros((slc.dim, slc.dim))
            sel[ch, ch] = 1.0
            op = bit_op(rot, bit) if ch == slc.axis(label) else np.eye(big)
            full += np.kron(sel, op)
        return full

    by_time: dict[int, list] = {}
    for pos, spec in enumerate(probes):
        for t, lab in spec.couplings:
            by_time.setdefault(t, []).append((pos, lab))
    for t in by_time:
        by_time[t].sort(key=lambda pc: (probes[pc[0]].probe_id, pc[1]))

    probe_vac = np.zeros(big, dtype=complex)
    probe_vac[0] = 1.0
    state = np.kron(initial.amplitudes, probe_vac)
    stop = dyn.final_index if upto is None else upto
    for pos, lab in by_time.get(0, []):
        state = coupling_matrix(dyn.slices[0], lab, pos) @ state
    for j in range(stop):
        state = np.kron(dyn.steps[j].matrix, np.eye(big)) @ state
        for pos, lab in by_time.get(j + 1, []):
            state = coupling_matrix(dyn.slices[j + 1], lab, pos) @ state
    return state.reshape(dyn.slices[stop].dim, big)


def full_rotation_evolution(dyn, probes, eps, initial, phase=0.0):
    """The library's evolution with each coupling as the full rotation: the
    |0> column (zeta, eta), the |1> column its completion (-eta, zeta)
    times exp(i phase)."""
    z, e = math.sqrt(1.0 - eps), math.sqrt(eps)
    w = np.exp(1j * phase)
    by_time: dict[int, list] = {}
    for pos, spec in enumerate(probes):
        for t, lab in spec.couplings:
            by_time.setdefault(t, []).append((pos, lab))
    amps = np.zeros((initial.slice.dim, 1 << len(probes)), dtype=complex)
    amps[:, 0] = initial.amplitudes
    for t in range(dyn.final_index + 1):
        for pos, lab in sorted(by_time.get(t, []), key=lambda pc: (probes[pc[0]].probe_id, pc[1])):
            row = amps[dyn.slices[t].axis(lab)].reshape(-1, 2, 1 << pos)
            a0, a1 = row[:, 0].copy(), row[:, 1].copy()
            row[:, 0] = z * a0 - e * w * a1
            row[:, 1] = e * a0 + z * w * a1
        if t < dyn.final_index:
            amps = dyn.steps[t].matrix @ amps
    return amps


class TestEvolution:
    @pytest.mark.parametrize("alpha2", [1 / 3, 0.42])
    @pytest.mark.parametrize("eps", [1e-4, 1e-2])
    def test_single_watcher_branches_match_closed_forms(self, alpha2, eps):
        dyn, s0 = model(alpha2)
        js = evolve_with_probes(
            dyn, standard_probes("adew"), ProbeStrength(eps), s0
        )
        branches = {br.kappa: br.phi.amplitudes for br in branch_components(js)}
        expected = expected_single_watcher_branches(alpha2, eps)
        assert set(branches) == set(expected)
        for kappa, ref in expected.items():
            np.testing.assert_allclose(branches[kappa], ref, atol=1e-12)

    @pytest.mark.parametrize("alpha2", [1 / 3, 0.42])
    @pytest.mark.parametrize("eps", [1e-4, 1e-2])
    def test_split_watcher_branches_match_closed_forms(self, alpha2, eps):
        dyn, s0 = model(alpha2)
        js = evolve_with_probes(
            dyn, standard_probes("adbce"), ProbeStrength(eps), s0
        )
        branches = {br.kappa: br.phi.amplitudes for br in branch_components(js)}
        expected = expected_split_watcher_branches(alpha2, eps)
        assert set(branches) == set(expected)
        for kappa, ref in expected.items():
            np.testing.assert_allclose(branches[kappa], ref, atol=1e-12)

    @pytest.mark.parametrize("ids", ["adew", "adbce", "adbcew"])
    def test_matches_full_matrix_oracle(self, ids):
        dyn, s0 = model(0.37)
        probes = standard_probes(ids)
        eps = 0.07
        js = evolve_with_probes(dyn, probes, ProbeStrength(eps), s0)
        ref = kron_oracle(dyn, probes, eps, s0)
        np.testing.assert_allclose(js.amplitudes, ref, atol=1e-12)

    def test_zero_strength_gives_single_branch(self):
        dyn, s0 = model()
        js = evolve_with_probes(dyn, standard_probes("adbce"), ProbeStrength(0.0), s0)
        branches = branch_components(js)
        assert [br.kappa for br in branches] == ["o"]
        from qhistories.dynamics import transport

        np.testing.assert_allclose(
            branches[0].phi.amplitudes, transport(dyn, s0, 4).amplitudes, atol=1e-14
        )

    def test_norm_conserved_at_every_time(self):
        # Probes at the first (S) and last (F) time as well: couplings at
        # `upto` apply and later ones do not, which the norm alone misses.
        dyn, s0 = model(0.61)
        probes = standard_probes("adbcew") + (
            ProbeSpec("s", frozenset({(0, "S")})),
            ProbeSpec("f", frozenset({(4, "F")})),
        )
        for upto in range(5):
            js = evolve_with_probes(dyn, probes, ProbeStrength(0.13), s0, upto=upto)
            assert np.sum(np.abs(js.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
            ref = kron_oracle(dyn, probes, 0.13, s0, upto=upto)
            np.testing.assert_allclose(js.amplitudes, ref, atol=1e-12)

    def test_unknown_coupling_channel_rejected(self):
        dyn, s0 = model()
        bad = ProbeSpec("x", frozenset({(1, "X")}))
        with pytest.raises(ValueError, match="unknown channel"):
            evolve_with_probes(dyn, (bad,), ProbeStrength(0.01), s0)
        # a coupling after `upto` is checked too
        late = ProbeSpec("x", frozenset({(4, "X")}))
        with pytest.raises(ValueError, match=re.escape("unknown channel 'X' on slice t4")):
            evolve_with_probes(dyn, (late,), ProbeStrength(0.01), s0, upto=1)

    def test_earliest_foreign_coupling_is_named(self):
        # Couplings are resolved by time, then probe id, then channel label,
        # whatever the order of the probes.
        dyn, s0 = model()
        late = ProbeSpec("a", frozenset({(9, "A")}))
        early = ProbeSpec("z", frozenset({(1, "Z")}))
        for probes in [(late, early), (early, late)]:
            with pytest.raises(ValueError, match=re.escape("unknown channel 'Z' on slice t1")):
                evolve_with_probes(dyn, probes, ProbeStrength(0.01), s0)
        same_time = (ProbeSpec("y", frozenset({(2, "Y")})), ProbeSpec("x", frozenset({(2, "X")})))
        with pytest.raises(ValueError, match=re.escape("unknown channel 'X'")):
            evolve_with_probes(dyn, same_time, ProbeStrength(0.01), s0)

    def test_probe_coupled_at_two_times_rejected(self):
        # such a probe is rotated twice on a path through both couplings, so
        # its outcomes would depend on the phase of the rotation's completion
        with pytest.raises(ValueError, match=re.escape("probe 'x' couples at times [1, 2], not at one time")):
            ProbeSpec("x", frozenset({(1, "A"), (2, "A")}))

    def test_probe_watching_two_channels_at_one_time_is_legal(self):
        assert ProbeSpec("w", frozenset({(2, "B"), (2, "C")})).couplings == {(2, "B"), (2, "C")}

    @pytest.mark.parametrize(
        "couplings, message",
        [({(1, None), (1, "A")}, "probe 'x' has channel None, not a string"),
         ({("1", "A")}, "probe 'x' has time '1', not an integer"),
         ({1}, "probe 'x' has coupling 1, not a (time, label) pair"),
         ({(1, "A", "B")}, "probe 'x' has coupling (1, 'A', 'B'), not a (time, label) pair")],
        ids=["label-None", "time-str", "coupling-int", "coupling-triple"],
    )
    def test_coupling_types_are_checked_at_intake(self, couplings, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ProbeSpec("x", couplings)

    @pytest.mark.parametrize(
        "couplings, message",
        [([[1, "A"]], "probe 'x' has couplings [[1, 'A']], not a set of (time, label) pairs"),
         (5, "probe 'x' has couplings 5, not a set of (time, label) pairs")],
        ids=["unhashable-pair", "int"],
    )
    def test_couplings_that_make_no_set_are_rejected_at_intake(self, couplings, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ProbeSpec("x", couplings)

    @pytest.mark.parametrize("probe_id", [5, "", None], ids=["int", "empty", "None"])
    def test_probe_id_is_checked_at_intake(self, probe_id):
        message = f"probe id {probe_id!r} is not a non-empty string"
        with pytest.raises(ValueError, match=re.escape(message)):
            ProbeSpec(probe_id, {(1, "A")})

    def test_numpy_integer_times_are_accepted(self):
        dyn, s0 = model()
        spec = ProbeSpec("a", frozenset({(np.int64(1), "A")}))
        got = evolve_with_probes(dyn, (spec,), ProbeStrength(0.01), s0)
        want = evolve_with_probes(dyn, standard_probes("a"), ProbeStrength(0.01), s0)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_initial_ket_past_the_last_slice_rejected(self):
        dyn, _ = model()
        far = Ket(TimeSlice(7, ("S", "R", "Q")), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="outside range 0..4"):
            evolve_with_probes(dyn, standard_probes("a"), ProbeStrength(0.01), far)

    def test_same_time_probe_order_is_immaterial(self):
        dyn, s0 = model(0.42)
        eps = ProbeStrength(0.09)
        ordered = standard_probes("adbce")
        swapped = tuple(
            {"b": ordered[3], "c": ordered[2]}.get(p.probe_id, p) for p in ordered
        )
        pdi = detector_pdi(dyn)
        d1 = outcome_distribution(evolve_with_probes(dyn, ordered, eps, s0), pdi)
        d2 = outcome_distribution(evolve_with_probes(dyn, swapped, eps, s0), pdi)
        canon1 = {(d, frozenset(k) - {"o"}): v for (d, k), v in d1.probs.items()}
        canon2 = {(d, frozenset(k) - {"o"}): v for (d, k), v in d2.probs.items()}
        assert set(canon1) == set(canon2)
        for key, v in canon1.items():
            assert v == pytest.approx(canon2[key], abs=1e-12)

    def test_completion_phase_never_reaches_outcomes(self):
        rng = np.random.default_rng(23)
        dyn, s0 = model(0.42)
        pdi = detector_pdi(dyn)
        probes = standard_probes("adbcew")
        base = outcome_distribution(evolve_with_probes(dyn, probes, ProbeStrength(0.2), s0), pdi)
        for phase in [0.0, np.pi / 2, np.pi] + rng.uniform(0, 2 * np.pi, size=5).tolist():
            amps = full_rotation_evolution(dyn, probes, 0.2, s0, phase)
            alt = outcome_distribution(JointState(dyn.slices[4], probes, amps), pdi)
            for key, v in base.probs.items():
                assert alt.probs[key] == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_haar_amplitudes_equal_the_full_rotation(self, seed):
        # probes listed out of time order, one watching two channels, two
        # at one time on one channel; the completion multiplies zeros only
        dyn, s0 = haar_dynamics(seed, n_slices=6)
        probes = (ProbeSpec("p", frozenset({(4, "c1")})),
                  ProbeSpec("q", frozenset({(1, "c5")})),
                  ProbeSpec("w", frozenset({(3, "c0"), (3, "c6")})),
                  ProbeSpec("r", frozenset({(5, "c2")})),
                  ProbeSpec("s", frozenset({(2, "c3")})),
                  ProbeSpec("t", frozenset({(1, "c5")})),
                  ProbeSpec("u", frozenset({(0, "c4")})))
        js = evolve_with_probes(dyn, probes, ProbeStrength(0.3), s0)
        ref = full_rotation_evolution(dyn, probes, 0.3, s0)
        assert (js.amplitudes == ref).all()
        assert js.amplitudes.flags.writeable is False


class TestOutcomeStatistics:
    def test_conditional_excitation_probability(self):
        alpha2, eps = 1 / 3, 0.01
        dyn, s0 = model(alpha2)
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(eps), s0)
        dist = outcome_distribution(js, detector_pdi(dyn))
        assert dist.p("F4", "a") == pytest.approx(eps * alpha2**2, abs=1e-14)
        assert dist.p("F4", "o") == pytest.approx((1 - eps) * alpha2**2, abs=1e-14)
        assert dist.detector_marginal("F4") == pytest.approx(alpha2**2, abs=1e-14)
        assert dist.given_detector("F4")["a"] == pytest.approx(eps, abs=1e-12)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_watcher_probes_never_fire_into_the_straight_output(self):
        dyn, s0 = model(0.42)
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(0.01), s0)
        dist = outcome_distribution(js, detector_pdi(dyn))
        leaked = sum(
            v
            for (det, kappa), v in dist.probs.items()
            if det in ("F4", "G4") and set(kappa) & {"d", "w", "e"}
        )
        assert leaked <= 1e-14

    def test_double_excitation_weight(self):
        # frozen from the closed form (1/4) zeta^2 eta^4 beta^2 and the
        # full-matrix oracle: both give 1.65e-05 at alpha2=1/3, eps=0.01
        alpha2, eps = 1 / 3, 0.01
        dyn, s0 = model(alpha2)
        js = evolve_with_probes(dyn, standard_probes("adbce"), ProbeStrength(eps), s0)
        slc = dyn.slices[4]
        fg = PDI(
            slc,
            (
                projector_from_labels(slc, {"F", "G"}),
                projector_from_labels(slc, {"H"}),
            ),
        )
        dist = outcome_distribution(js, fg)
        assert dist.p("F4+G4", "be") == pytest.approx(1.65e-05, rel=1e-9)
        assert dist.p("F4+G4", "be") == pytest.approx(
            0.25 * (1 - eps) * eps**2 * (2 / 3), abs=1e-14
        )

    def test_coincidence_support_lists(self):
        dyn, s0 = model(1 / 3)
        js = evolve_with_probes(dyn, standard_probes("adbce"), ProbeStrength(0.01), s0)
        support = coincidence_support(outcome_distribution(js, detector_pdi(dyn)))
        assert support["H4"] == {"o", "d", "b", "c", "db", "dc"}
        expected_fg = {"o", "a", "b", "c", "db", "dc", "be", "ce", "dbe", "dce"}
        assert support["F4"] == expected_fg
        assert support["G4"] == expected_fg

    def test_single_watcher_support(self):
        dyn, s0 = model(1 / 3)
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(0.01), s0)
        support = coincidence_support(outcome_distribution(js, detector_pdi(dyn)))
        assert support["F4"] == {"o", "a"}
        assert support["G4"] == {"o", "a"}
        assert support["H4"] == {"o", "d", "w", "dw"}

    @pytest.mark.parametrize("eps", [0.25, 0.01])
    def test_exclusivity_rules_with_all_probes(self, eps):
        dyn, s0 = model(0.42)
        js = evolve_with_probes(dyn, standard_probes("adbcew"), ProbeStrength(eps), s0)
        dist = outcome_distribution(js, detector_pdi(dyn))
        for (_, kappa), v in dist.probs.items():
            if v <= 1e-10:
                continue
            excited = set(kappa) - {"o"}
            assert not {"b", "c"} <= excited
            if "w" in excited and not excited & {"b", "c"}:
                assert "e" not in excited

    def test_split_watchers_make_e_need_b_or_c(self):
        dyn, s0 = model(0.42)
        js = evolve_with_probes(dyn, standard_probes("adbce"), ProbeStrength(0.05), s0)
        dist = outcome_distribution(js, detector_pdi(dyn))
        for (_, kappa), v in dist.probs.items():
            if v > 1e-10 and "e" in kappa:
                assert set(kappa) & {"b", "c"}

    def test_excitation_weights_scale_with_strength_order(self):
        dyn, s0 = model(0.37)
        probes = standard_probes("adbce")
        limits: dict[str, list[float]] = {}
        for eps in (1e-2, 1e-3, 1e-4):
            js = evolve_with_probes(dyn, probes, ProbeStrength(eps), s0)
            for br in branch_components(js):
                order = 0 if br.kappa == "o" else len(br.kappa)
                limits.setdefault(br.kappa, []).append(
                    br.phi.norm() ** 2 / eps**order
                )
        for kappa, values in limits.items():
            assert len(values) == 3
            assert values[-1] > 0
            assert abs(values[-1] / values[-2] - 1.0) <= 0.01


def fourier_pdi(dyn):
    """Rank-one projectors onto the discrete Fourier basis of the final
    slice: every part mixes every channel."""
    slc = dyn.slices[4]
    omega = np.exp(2j * np.pi / 3)
    basis = [np.array([1, omega**k, omega ** (2 * k)]) / math.sqrt(3) for k in range(3)]
    parts = tuple(projector_from_ket(Ket(slc, f), f"f{k}") for k, f in enumerate(basis))
    return PDI(slc, parts), np.column_stack(basis)


def mask_label(mask, probes):
    return "".join(p.probe_id for i, p in enumerate(probes) if mask >> i & 1) or "o"


class TestDenseReference:
    """`outcome_distribution` on a non-diagonal detector PDI against
    |<f_k|phi_m>|^2, the squared overlap of each rank-one detector ray with
    each probe pattern's particle column."""

    @pytest.mark.parametrize("ids", ["adbe", "adbce", "adbcew"])
    def test_every_cell_matches_dense_overlaps(self, ids):
        dyn, s0 = model(0.42)
        probes = standard_probes(ids)
        js = evolve_with_probes(dyn, probes, ProbeStrength(0.2), s0)
        pdi, basis = fourier_pdi(dyn)
        dist = outcome_distribution(js, pdi)
        n = len(probes)
        masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
        keys = [(f"f{k}", mask_label(m, probes)) for k in range(3) for m in masks]
        assert list(dist.probs) == keys
        ref = np.abs(basis.conj().T @ js.amplitudes) ** 2
        got = np.array([[dist.probs[(f"f{k}", mask_label(m, probes))] for m in range(1 << n)]
                        for k in range(3)])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_key_order_is_detector_major_then_mask_order(self):
        dyn, s0 = model(0.42)
        js = evolve_with_probes(dyn, standard_probes("adbe"), ProbeStrength(0.2), s0)
        dist = outcome_distribution(js, fourier_pdi(dyn)[0])
        labels = ["o", "a", "d", "b", "e", "ad", "ab", "db", "ae", "de", "be",
                  "adb", "ade", "abe", "dbe", "adbe"]
        assert list(dist.probs) == [(det, k) for det in ("f0", "f1", "f2") for k in labels]

    def test_fixed_seed_sample_counts(self):
        # the multinomial draws the cells in key order, so these literals
        # pin the key order as well as every cell's value
        dyn, s0 = model(0.42)
        js = evolve_with_probes(dyn, standard_probes("adbe"), ProbeStrength(0.2), s0)
        dist = outcome_distribution(js, fourier_pdi(dyn)[0])
        # a numpy integer count draws as the int does
        for n in (1000, np.int64(1000), np.uint16(1000)):
            counts = sample(dist, n, seed=11)
            assert counts == PINNED_COUNTS
            assert list(counts) == list(PINNED_COUNTS)


PINNED_COUNTS = {
    ("f0", "o"): 725, ("f0", "a"): 51, ("f0", "d"): 30, ("f0", "b"): 3, ("f0", "db"): 4,
    ("f1", "o"): 20, ("f1", "a"): 12, ("f1", "d"): 32, ("f1", "b"): 20, ("f1", "db"): 6,
    ("f1", "be"): 6,
    ("f2", "o"): 19, ("f2", "a"): 14, ("f2", "d"): 35, ("f2", "b"): 16, ("f2", "db"): 3,
    ("f2", "be"): 4,
}


def joint(amps, ids="pqrs"):
    slc = TimeSlice(0, ("X", "Y"))
    probes = tuple(ProbeSpec(i, frozenset({(0, "X")})) for i in ids[: int(np.log2(amps.shape[1]))])
    return JointState(slc, probes, amps)


class TestBranchComponents:
    def test_branch_at_tol_dropped_and_just_above_kept(self):
        # a branch norm is an amplitude, judged at the table's amplitude cut
        cut = _CUTS["amplitude"]
        assert cut == DEFAULT_TOL
        above = float(np.nextafter(cut, np.inf))
        amps = np.zeros((2, 4), dtype=complex)
        amps[0, 0] = 1.0
        amps[1, 1] = cut
        amps[0, 3] = above
        js = joint(amps)
        # the column norms are exactly the cut and the next float above it
        assert np.linalg.norm(amps, axis=0).tolist() == [1.0, cut, 0.0, above]
        kept = branch_components(js)
        assert [br.kappa for br in kept] == ["o", "pq"]
        assert kept[1].phi.norm() == above

    def test_branches_in_mask_order_with_dense_norms(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        amps[:, [5, 10]] = 0.0
        js = joint(amps)
        branches = branch_components(js)
        masks = [m for m in sorted(range(16), key=lambda m: (bin(m).count("1"), m))
                 if m not in (5, 10)]
        assert [br.kappa for br in branches] == [mask_label(m, js.probes) for m in masks]
        # mask order, not label order: qr (mask 6) precedes ps (mask 9)
        assert [br.kappa for br in branches][5:9] == ["pq", "qr", "ps", "rs"]
        norms = np.linalg.norm(amps, axis=0)
        for br, m in zip(branches, masks):
            np.testing.assert_array_equal(br.phi.amplitudes, amps[:, m])
            assert br.phi.norm() == pytest.approx(norms[m], rel=1e-15)

    def test_branch_kets_are_read_only_copies_with_the_column_norms(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        js = joint(amps)
        for br, m in zip(branch_components(js), _kappa_order(3)):
            assert br.phi.amplitudes.flags.writeable is False
            base = br.phi.amplitudes.base
            assert base is None or base.flags.writeable is False
            column = np.array(js.amplitudes[:, m])
            assert br.phi.norm() == Ket(js.slice, column).norm()
        assert js.amplitudes.flags.writeable is False

    def test_branches_are_plain_frozen_values(self):
        dyn, s0 = model()
        js = evolve_with_probes(dyn, standard_probes("ad"), ProbeStrength(0.01), s0)
        branch = branch_components(js)[1]
        assert repr(branch) == (
            "BranchComponent(kappa='a', phi=Ket(slice=TimeSlice(time_index=4, "
            "basis=('F', 'G', 'H')), amplitudes=array([0.03333333+0.j, "
            "0.04714045+0.j, 0.        +0.j]), name=''))"
        )
        assert branch.phi.slice is js.slice and branch.phi.name == ""
        assert branch.phi.amplitudes.flags.writeable is False
        with pytest.raises(FrozenInstanceError):
            branch.kappa = "d"
        for copy in (pickle.loads(pickle.dumps(branch)), deepcopy(branch)):
            assert type(copy) is BranchComponent and type(copy.phi) is Ket
            assert repr(copy) == repr(branch)
            assert copy.phi.slice == js.slice and copy.phi.name == ""
            np.testing.assert_array_equal(copy.phi.amplitudes, branch.phi.amplitudes)
            assert copy.phi.amplitudes.flags.writeable is False

    def test_non_finite_branch_is_rejected(self):
        amps = np.zeros((2, 4), dtype=complex)
        amps[0, 0] = 1.0
        amps[1, 2] = np.inf
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            branch_components(joint(amps))

    def test_nan_column_is_rejected_with_the_joint_state(self):
        amps = np.zeros((2, 4), dtype=complex)
        amps[0, 0] = 1.0
        amps[1, 2] = np.nan
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            joint(amps)

    def test_labels_by_mask_match_single_labels(self):
        probes = standard_probes("adbcew")
        assert _kappa_labels(probes) == [mask_label(m, probes) for m in range(64)]

    def test_kappa_order_cannot_be_mutated(self):
        # the one pattern order: a read-only index, one object per probe count
        assert _kappa_order(3).tolist() == [0, 1, 2, 4, 3, 5, 6, 7]
        for n in range(9):
            order = _kappa_order(n)
            assert order.flags.writeable is False and order.dtype == np.intp
            with pytest.raises(ValueError, match="read-only"):
                order[0] = 1
            assert _kappa_order(n) is order
            masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
            assert order.tolist() == masks
        assert _kappa_order(3).tolist() == [0, 1, 2, 4, 3, 5, 6, 7]


def shared_time_probes(n):
    """n single-channel probes over times 1 to 4; the first two watch two
    channels at time 1, so every pattern exciting both is exactly zero."""
    times = (1, 1, 2, 3, 4, 2, 3, 4)
    return tuple(ProbeSpec(f"p{i}", frozenset({(times[i], f"c{(3 * i) % 8}")})) for i in range(n))


def reference_branches_and_cells(js, pdi):
    """The reference readout: each ket and component filled by
    `__dict__.update`, and the pattern rows gathered by `list(order)`."""
    order = _kappa_order(len(js.probes))
    kept = (~_negligible(np.linalg.norm(js.amplitudes, axis=0), "amplitude")).tolist()
    labels = _kappa_labels(js.probes)
    rows = js.amplitudes.T.copy()
    rows.setflags(write=False)
    branches = []
    for mask in order:
        if kept[mask]:
            phi = object.__new__(Ket)
            phi.__dict__.update(slice=js.slice, amplitudes=rows[mask], name="")
            branch = object.__new__(BranchComponent)
            branch.__dict__.update(kappa=labels[mask], phi=phi)
            branches.append(branch)
    return tuple(branches), _norms2(pdi.parts, js.amplitudes.T[list(order)]).ravel()


class TestReadoutBuild:
    """Branches built by direct stores and cells gathered by the cached
    index, against the keyword-dict build and the list gather."""

    @pytest.mark.parametrize("n_probes", range(1, 9))
    @pytest.mark.parametrize("sizes", [(1,) * 8, (1, 2, 5)], ids=["1x8", "1-2-5"])
    def test_same_branches_and_cells_bit_for_bit(self, n_probes, sizes):
        dyn, s0 = haar_dynamics(39, dim=8)
        js = evolve_with_probes(dyn, shared_time_probes(n_probes), ProbeStrength(0.2), s0)
        # the patterns that excite both time-1 probes are exactly zero
        both = [m for m in range(1 << n_probes) if m & 3 == 3]
        assert len(both) == (1 << n_probes) // 4 and not js.amplitudes[:, both].any()
        pdi = grouped_pdi(dyn.slices[-1], sizes)
        ref_branches, ref_cells = reference_branches_and_cells(js, pdi)
        branches = branch_components(js)
        dist = outcome_distribution(js, pdi)

        assert [br.kappa for br in branches] == [br.kappa for br in ref_branches]
        assert [br.phi.amplitudes.tobytes() for br in branches] == [
            br.phi.amplitudes.tobytes() for br in ref_branches
        ]
        assert dist._cells.tobytes() == ref_cells.tobytes()
        rows = branches[0].phi.amplitudes.base
        assert rows.flags.writeable is False
        assert not np.shares_memory(rows, js.amplitudes)
        for br in branches:
            assert list(vars(br)) == ["kappa", "phi"]
            assert list(vars(br.phi)) == ["slice", "amplitudes", "name"]
            assert br.phi.slice is js.slice and br.phi.name == ""
            assert br.phi.amplitudes.base is rows
            assert br.phi.amplitudes.flags.writeable is False
        for copy in (pickle.loads(pickle.dumps(branches)), deepcopy(branches)):
            assert [type(br.phi) for br in copy] == [Ket] * len(branches)
            assert repr(copy) == repr(branches)
            assert [br.phi.amplitudes.tobytes() for br in copy] == [
                br.phi.amplitudes.tobytes() for br in branches
            ]
            assert all(br.phi.amplitudes.flags.writeable is False for br in copy)

    def test_copies_of_a_read_table_keep_it_read_only(self):
        dyn, s0 = haar_dynamics(40, dim=8)
        js = evolve_with_probes(dyn, shared_time_probes(6), ProbeStrength(0.2), s0)
        pdi = grouped_pdi(dyn.slices[-1], (1, 2, 5))
        # both readers have read the table, so it is copied with the state
        branches, cells = branch_components(js), outcome_distribution(js, pdi)._cells
        for twin in (pickle.loads(pickle.dumps(js)), shallow_copy(js), deepcopy(js)):
            twin_branches = branch_components(twin)
            assert [br.kappa for br in twin_branches] == [br.kappa for br in branches]
            for br, ref in zip(twin_branches, branches):
                assert br.phi.amplitudes.flags.writeable is False
                assert br.phi.amplitudes.base.flags.writeable is False
                assert br.phi.amplitudes.tobytes() == ref.phi.amplitudes.tobytes()
            assert outcome_distribution(twin, pdi)._cells.tobytes() == cells.tobytes()
            assert all(arr.flags.writeable is False for arr in twin._patterns()[1:])

    @pytest.mark.parametrize("first", ["branches", "distribution"])
    def test_joint_array_is_gathered_once(self, first, monkeypatch):
        norms2, received = probes_module._norms2, []

        def recorded(parts, cols):
            received.append(cols)
            return norms2(parts, cols)

        monkeypatch.setattr(probes_module, "_norms2", recorded)
        dyn, s0 = haar_dynamics(41, dim=8)
        js = evolve_with_probes(dyn, shared_time_probes(5), ProbeStrength(0.2), s0)
        pdi = grouped_pdi(dyn.slices[-1], (1,) * 8)
        if first == "branches":
            branches = branch_components(js)
            outcome_distribution(js, pdi)
        else:
            outcome_distribution(js, pdi)
            branches = branch_components(js)
        outcome_distribution(js, pdi)
        assert len(received) == 2 and received[0] is received[1]
        assert all(br.phi.amplitudes.base is received[0] for br in branches)
        assert all(br.phi.amplitudes.base is received[0] for br in branch_components(js))


def test_only_the_pattern_table_reads_the_pattern_order():
    # `_kappa_order` and a joint state's `amplitudes.T` are read in
    # `JointState._patterns` alone, so the pattern order is decided once
    tree = ast.parse(Path(probes_module.__file__).read_text())

    def reads(root):
        return [
            ast.unparse(node) for node in ast.walk(root)
            if (isinstance(node, ast.Name) and node.id == "_kappa_order")
            or (isinstance(node, ast.Attribute) and node.attr == "T"
                and ast.unparse(node.value).endswith("amplitudes"))
        ]

    (table,) = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_patterns"]
    assert sorted(reads(tree)) == sorted(reads(table)) == ["_kappa_order", "self.amplitudes.T"]


class TestDetectors:
    def test_detectors_in_first_seen_key_order(self):
        dist = OutcomeDistribution({("H4", "o"): 0.5, ("F4", "o"): 0.25, ("H4", "a"): 0.25})
        assert dist.detectors() == ("H4", "F4")
        assert OutcomeDistribution({}).detectors() == ()

    def test_detectors_held_through_copies_with_the_same_repr(self):
        # keys interleave three detectors
        probs = {("H4", "o"): 0.5, ("F4", "o"): 0.25, ("G4", "a"): 0.0,
                 ("F4", "a"): 0.25, ("H4", "a"): 0.0}
        dist = OutcomeDistribution(probs)
        assert dist.detectors() == ("H4", "F4", "G4")
        assert repr(OutcomeDistribution({("H4", "o"): 0.5, ("F4", "o"): 0.25})) == (
            "OutcomeDistribution(_keys=(('H4', 'o'), ('F4', 'o')), _cells=array([0.5 , 0.25]))"
        )
        for copy in (pickle.loads(pickle.dumps(dist)), deepcopy(dist)):
            assert copy == dist and repr(copy) == repr(dist)
            assert copy.detectors() == ("H4", "F4", "G4")

    def test_readout_detectors_follow_the_decomposition(self):
        dyn, s0 = model()
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(0.01), s0)
        slc = dyn.slices[4]
        pdi = PDI(slc, (projector_from_labels(slc, {"H"}),
                        projector_from_labels(slc, {"F", "G"}, name="")))
        dist = outcome_distribution(js, pdi)
        assert dist.detectors() == ("H4", "part1")
        assert dist.detectors() == tuple(dict.fromkeys(d for d, _ in dist.probs))
        assert dist == OutcomeDistribution(dist.probs)

    def test_duplicate_part_names_rejected(self):
        dyn, s0 = model()
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(0.01), s0)
        slc = dyn.slices[4]
        pdi = PDI(slc, (projector_from_labels(slc, {"F", "G"}, name="X"),
                        projector_from_labels(slc, {"H"}, name="X")))
        with pytest.raises(ValueError, match="detector name 'X'"):
            outcome_distribution(js, pdi)


class TestGivenDetector:
    def test_zero_mass_detector_is_a_vanishing_probability(self):
        dist = OutcomeDistribution({("F4", "o"): 0.0, ("F4", "a"): 0.0, ("H4", "o"): 1.0})
        with pytest.raises(VanishingProbabilityError, match="zero probability") as err:
            dist.given_detector("F4")
        assert isinstance(err.value, ValueError)
        assert err.value.probability == 0.0
        assert dist.given_detector("H4") == {"o": 1.0}
        # 0.0 is the detector-mass cut; the least float above it is a mass
        assert _CUTS["detector mass"] == 0.0
        above = OutcomeDistribution({("F4", "o"): np.nextafter(0.0, np.inf), ("H4", "o"): 1.0})
        assert above.given_detector("F4") == {"o": 1.0}

    def test_unknown_detector_is_an_input_error(self):
        dist = OutcomeDistribution({("F4", "o"): 0.0, ("H4", "o"): 1.0})
        for query in (dist.detector_marginal, dist.given_detector, lambda det: dist.p(det, "o")):
            with pytest.raises(ValueError, match=r"unknown detector 'Z'.*\['F4', 'H4'\]") as err:
                query("Z")
            assert not isinstance(err.value, VanishingProbabilityError)

    def test_unknown_pattern_is_an_input_error(self):
        dist = OutcomeDistribution({("F4", "o"): 1.0, ("H4", "o"): 0.0, ("H4", "a"): 0.0})
        message = "unknown pattern 'zz' for detector 'F4'; patterns are ['o']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
            dist.p("F4", "zz")
        assert not isinstance(err.value, KeyError)
        # a pattern of another detector is unknown to this one
        message = "unknown pattern 'a' for detector 'F4'; patterns are ['o']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dist.p("F4", "a")
        assert (dist.p("F4", "o"), dist.p("H4", "a")) == (1.0, 0.0)
        # an unhashable detector is no cell's detector, an unhashable
        # pattern no cell's pattern
        message = "unknown detector ['F4']; detectors are ['F4', 'H4']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dist.p(["F4"], "o")
        message = "unknown pattern ['o'] for detector 'F4'; patterns are ['o']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dist.p("F4", ["o"])


class TestOneSourceOfTruth:
    """The cells are held once: a caller hands in one mapping, checked at
    construction, and can neither pass a second copy nor change the one held."""

    @pytest.mark.parametrize(
        "probs",
        [{("a", "o"): 1.1, ("a", "b"): -0.1},
         {("a", "o"): 1.0, ("a", "b"): math.nan},
         {("a", "o"): 1.0, ("a", "b"): math.inf}],
        ids=["negative", "nan", "inf"],
    )
    def test_caller_cells_must_be_finite_and_non_negative(self, probs):
        with pytest.raises(ValueError, match="finite and >= 0"):
            OutcomeDistribution(probs)

    @pytest.mark.parametrize(
        "key",
        ["F4", 5, ("F4",), ("F4", "o", "a"), ("F4", 5), (4, "o")],
        ids=["string", "int", "single", "triple", "int-pattern", "int-detector"],
    )
    def test_caller_keys_must_be_pairs_of_strings(self, key):
        # "F4" was read as detector "F", pattern "4"; 5 ended in a bare TypeError
        message = f"outcome {key!r} is not a (detector, pattern) pair of strings"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OutcomeDistribution({("F4", "o"): 0.5, key: 0.5})

    @pytest.mark.parametrize(
        "cell", [0.5j, complex(0.5, 0.0), np.complex128(0.5), "0.5", None],
        ids=["imaginary", "complex", "complex128", "str", "None"],
    )
    def test_caller_cells_must_be_real(self, cell):
        # a complex cell ended in a bare TypeError, a string was parsed
        message = f"outcome ('H4', 'o') has probability {cell!r}, not a real number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OutcomeDistribution({("F4", "o"): 0.5, ("H4", "o"): cell})
        dist = OutcomeDistribution({("F4", "o"): np.float32(0.5), ("H4", "o"): Fraction(1, 2)})
        assert dist.probs == {("F4", "o"): 0.5, ("H4", "o"): 0.5}

    def test_probs_is_a_read_only_view(self):
        dyn, s0 = model()
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(0.01), s0)
        built = outcome_distribution(js, detector_pdi(dyn))
        for dist in (built, OutcomeDistribution({("F4", "o"): 1.0, ("H4", "o"): 0.0})):
            key, value = next(iter(dist.probs.items()))
            with pytest.raises(TypeError):
                dist.probs[key] = value + 1.0
            assert dist.probs[key] == value
            assert dist.total() == sum(dist.probs.values())

    def test_keys_and_cells_cannot_be_passed_in(self):
        probs = {("F4", "o"): 1.0, ("H4", "o"): 0.0}
        keys, cells = tuple(probs), np.array([0.0, 1.0])
        with pytest.raises(TypeError):
            OutcomeDistribution(probs, keys, cells)
        for extra in ({"_keys": keys}, {"_cells": cells}):
            with pytest.raises(TypeError):
                OutcomeDistribution(probs, **extra)
        dist = OutcomeDistribution(probs)
        assert dist.total() == 1.0
        assert coincidence_support(dist) == {"F4": {"o"}, "H4": set()}
        assert sample(dist, 10, seed=1) == {("F4", "o"): 10}

    def test_pickles_through_the_checked_constructor(self):
        dist = OutcomeDistribution({("H4", "o"): 0.5, ("F4", "o"): 0.25, ("H4", "a"): 0.25})
        assert dist.probs  # caches the view, which cannot be pickled
        copy = pickle.loads(pickle.dumps(dist))
        assert copy == dist and list(copy.probs) == list(dist.probs)
        assert copy._cells.flags.writeable is False


def reference_cells(js, pdi):
    """The per-part loop: one stacked matrix-vector product per detector
    part over the patterns in `_kappa_order`."""
    order = _kappa_order(len(js.probes))
    by_mask = _kappa_labels(js.probes)
    labels = [by_mask[mask] for mask in order]
    cols = js.amplitudes.T[list(order), :, None]
    probs = {}
    for i, part in enumerate(pdi.parts):
        p = np.sum(np.abs(np.matmul(part.matrix, cols)) ** 2, axis=(1, 2))
        probs.update(zip([(part.name or f"part{i}", lab) for lab in labels], p.tolist()))
    return probs


def reference_support(dist, tol=DEFAULT_TOL):
    """The walk of every (detector, pattern) cell."""
    support = {d: set() for d in dist.detectors()}
    for (d, k), v in dist.probs.items():
        if v > tol:
            support[d].add(k)
    return support


def reference_sample(dist, n, seed):
    """Multinomial draws over the cells looked up key by key."""
    keys = list(dist.probs)
    p = np.array([dist.probs[k] for k in keys], dtype=float)
    counts = np.random.default_rng(seed).multinomial(n, p / p.sum())
    return {k: int(c) for k, c in zip(keys, counts) if c > 0}


def assert_readout_matches_reference(dist, ref_cells=None):
    if ref_cells is not None:
        assert list(dist.probs) == list(ref_cells)
        np.testing.assert_array_equal(
            np.array(list(dist.probs.values())), np.array(list(ref_cells.values()))
        )
    # the accessors against the walks of the mapping they replaced, with `==`
    items = list(dist.probs.items())
    assert dist.total() == sum(v for _, v in items)
    for det in dist.detectors():
        mass = sum(v for (d, _), v in items if d == det)
        assert dist.detector_marginal(det) == mass
        if mass > 0.0:
            ref = [(k, v / mass) for (d, k), v in items if d == det]
            assert list(dist.given_detector(det).items()) == ref
        else:
            with pytest.raises(VanishingProbabilityError):
                dist.given_detector(det)
    assert [dist.p(d, k) for (d, k), _ in items] == [v for _, v in items]
    assert dist == OutcomeDistribution(dist.probs)
    (key, value), *_ = items
    assert dist != OutcomeDistribution({**dist.probs, key: np.nextafter(value, 2.0)})
    assert coincidence_support(dist) == reference_support(dist)
    counts = sample(dist, 100_000, seed=13)
    ref_counts = reference_sample(dist, 100_000, seed=13)
    assert counts == ref_counts
    assert list(counts) == list(ref_counts)


def haar_probes(n):
    """n single-channel probes, spread over times 1 to 5 in turn."""
    return tuple(ProbeSpec(f"p{i}", frozenset({(1 + i % 5, f"c{(3 * i) % 8}")})) for i in range(n))


def grouped_pdi(slc, sizes):
    """Label projectors onto consecutive runs of `sizes` channels."""
    bounds = np.cumsum((0,) + sizes)
    return PDI(slc, tuple(projector_from_labels(slc, slc.basis[i:j], f"g{k}")
                          for k, (i, j) in enumerate(zip(bounds, bounds[1:]))))


def rank_one(slc, amps, name):
    return projector_from_ket(Ket(slc, np.array(amps + [0] * (slc.dim - len(amps)))), name)


@pytest.fixture
def matmul_calls(monkeypatch):
    """Count the broadcast matrix products of part matrices the readout
    makes.  The 0/1 support-mask product (`@`) is not one of them."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", counted)
    return calls


class TestReadoutReference:
    """The array readout against the per-cell formulas it replaced: equal
    cells bit for bit, equal support sets and equal seeded counts in key
    order."""

    @pytest.mark.parametrize("n_probes", [4, 5, 6, 7])
    @pytest.mark.parametrize("detectors", ["slice", "fourier"])
    def test_matches_per_cell_formulas(self, n_probes, detectors):
        dyn, s0 = model(0.42)
        probes = standard_probes(BUILTIN_ORDER) + (ProbeSpec("h", frozenset({(3, "H")})),)
        js = evolve_with_probes(dyn, probes[:n_probes], ProbeStrength(0.2), s0)
        pdi = slice_pdi(dyn.slices[4]) if detectors == "slice" else fourier_pdi(dyn)[0]
        ref = reference_cells(js, pdi)
        dist = outcome_distribution(js, pdi)
        assert_readout_matches_reference(dist, ref)
        assert dist._cells.dtype == np.float64
        assert dist._cells.flags.writeable is False

    @pytest.mark.parametrize("n_probes", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("sizes", [(1,) * 8, (2, 2, 2, 2), (1, 1, 2, 2, 2), (2, 3, 3), (4, 4),
                                       (1, 2, 5)],
                             ids=["1x8", "2-2-2-2", "1-1-2-2-2", "2-3-3", "4-4", "1-2-5"])
    def test_grouped_diagonal_detectors_need_no_product(self, n_probes, sizes, matmul_calls):
        dyn, s0 = haar_dynamics(7, n_slices=6)
        js = evolve_with_probes(dyn, haar_probes(n_probes), ProbeStrength(0.2), s0)
        pdi = grouped_pdi(dyn.slices[-1], sizes)
        ref = reference_cells(js, pdi)
        matmul_calls.clear()
        dist = outcome_distribution(js, pdi)
        assert matmul_calls == []
        assert_readout_matches_reference(dist, ref)

    @pytest.mark.parametrize("alpha2", [0.001, 1 / 3, 0.5, 0.999])
    @pytest.mark.parametrize("ids", ["adbce", "adbcew", "adew"])
    def test_suite_detectors_need_no_product(self, alpha2, ids, matmul_calls):
        # the paper suite's {F,G}|{H} at d = 3
        dyn, s0 = model(alpha2)
        js = evolve_with_probes(dyn, standard_probes(ids), ProbeStrength(0.2), s0)
        slc = dyn.slices[4]
        pdi = PDI(slc, (projector_from_labels(slc, {"F", "G"}), projector_from_labels(slc, {"H"})))
        ref = reference_cells(js, pdi)
        matmul_calls.clear()
        dist = outcome_distribution(js, pdi)
        assert matmul_calls == []
        assert_readout_matches_reference(dist, ref)

    def test_nearly_diagonal_part_takes_the_product(self, matmul_calls):
        # 0/1 on the diagonal, but one off-diagonal pair of 1e-200: it passes
        # the projector checks and is not a diagonal detector
        dyn, s0 = haar_dynamics(7, n_slices=6)
        js = evolve_with_probes(dyn, haar_probes(6), ProbeStrength(0.2), s0)
        slc = dyn.slices[-1]
        m = np.diag([1.0, 1.0, 1.0] + [0.0] * 5).astype(complex)
        m[0, 1] = m[1, 0] = 1e-200
        pdi = PDI(slc, (Projector(slc, m, "near"), projector_from_labels(slc, slc.basis[3:])))
        ref = reference_cells(js, pdi)
        matmul_calls.clear()
        dist = outcome_distribution(js, pdi)
        assert matmul_calls == [(2, 1, 8, 8)]
        assert_readout_matches_reference(dist, ref)

    def test_mixed_diagonal_and_dense_parts_take_the_product(self, matmul_calls):
        dyn, s0 = haar_dynamics(7, n_slices=6)
        js = evolve_with_probes(dyn, haar_probes(7), ProbeStrength(0.2), s0)
        slc = dyn.slices[-1]
        pdi = PDI(slc, (projector_from_labels(slc, slc.basis[:2], "m0"),
                        rank_one(slc, [0, 0, 0.6, 0.8j], "m1"),
                        rank_one(slc, [0, 0, 0.8, -0.6j], "m2"),
                        projector_from_labels(slc, slc.basis[4:], "m3")))
        ref = reference_cells(js, pdi)
        matmul_calls.clear()
        dist = outcome_distribution(js, pdi)
        assert matmul_calls == [(4, 1, 8, 8)]
        assert_readout_matches_reference(dist, ref)

    def test_caller_built_keys_follow_key_order(self):
        # not grouped by detector, with one cell exactly at the support cut
        # (a probability) and one a float above it
        cut = _CUTS["probability"]
        probs = {("H4", "o"): 0.5, ("F4", "o"): 0.25, ("H4", "a"): 0.25, ("F4", "a"): cut,
                 ("H4", "b"): np.nextafter(cut, np.inf)}
        dist = OutcomeDistribution(probs)
        assert_readout_matches_reference(dist)
        assert coincidence_support(dist) == {"H4": {"o", "a", "b"}, "F4": {"o"}}
        assert list(sample(dist, 1000, seed=3)) == list(probs)[:3]


class TestReadoutGauge:
    """The label path of the readout against the dense path of the same
    readout with only the final slice in a Haar-random basis V: the last
    step becomes V U and each detector part V P V^dagger, so the rotated
    parts record no support.  Probes couple before the final slice, where
    the rotation does not reach them.

    The bound is `assert_gauge_invariant`'s, 20 d T eps for a unit initial
    ket: a cell is a squared norm after at most T step products and one
    part product, and the rotation adds two products to each part and one
    to the last step."""

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("sizes", [(1,) * 8, (2, 2, 2, 2), (1, 1, 2, 2, 2), (2, 3, 3)],
                             ids=["1x8", "2-2-2-2", "1-1-2-2-2", "2-3-3"])
    def test_rotated_final_slice_gives_the_same_cells(self, seed, sizes, matmul_calls):
        dyn, s0 = haar_dynamics(seed, n_slices=6)
        probes = tuple(ProbeSpec(f"p{i}", frozenset({(1 + i % 4, f"c{(3 * i) % 8}")}))
                       for i in range(6))
        strength = ProbeStrength(0.2)
        slc = dyn.slices[-1]
        pdi = grouped_pdi(slc, sizes)
        v = haar_unitary(np.random.default_rng([seed, 4]), slc.dim)
        last = dyn.steps[-1]
        rotated = Dynamics(dyn.slices, dyn.steps[:-1] + (
            StepUnitary(last.from_slice, last.to_slice, v @ last.matrix),))
        rotated_pdi = PDI(slc, tuple(Projector(slc, v @ p.matrix @ v.conj().T, p.name)
                                     for p in pdi))
        assert all(p._on is None for p in rotated_pdi)

        matmul_calls.clear()
        dist = outcome_distribution(evolve_with_probes(dyn, probes, strength, s0), pdi)
        assert matmul_calls == []
        got = outcome_distribution(
            evolve_with_probes(rotated, probes, strength, s0), rotated_pdi)
        assert matmul_calls == [(len(sizes), 1, 8, 8)]
        assert got._keys == dist._keys
        bound = 20 * slc.dim * len(dyn.slices) * np.finfo(float).eps
        assert np.max(np.abs(got._cells - dist._cells)) <= bound


class TestIntake:
    """Steps whose products would overflow float64, and joint states whose
    squared amplitudes would, are refused at construction by the amplitude
    bound."""

    BOUND = re.escape("amplitudes must be finite and at most 1e+100 in modulus")

    @pytest.mark.parametrize(
        "matrix",
        [[[1e200, 1e200], [1e200, -1e200]], np.eye(2) * 1e300],
        ids=["hadamard-1e200", "scale-1e300"],
    )
    def test_overflowing_steps_are_rejected(self, matrix):
        s = (TimeSlice(0, ("X", "Y")), TimeSlice(1, ("X", "Y")))
        with pytest.raises(ValueError, match=self.BOUND + r" \(step matrix\)"):
            StepUnitary(s[0], s[1], matrix)

    @pytest.mark.parametrize("labels", ["WXYZ", "XY"])
    def test_a_joint_state_above_the_bound_is_rejected(self, labels):
        slc = TimeSlice(0, tuple(labels))
        amps = np.zeros((len(labels), 2))
        amps[0, 0], amps[1, 0], amps[-1, 1] = 1e200, 1.0, 1.0
        probes = (ProbeSpec("p", frozenset({(0, labels[0])})),)
        with pytest.raises(ValueError, match=self.BOUND + r" \(joint state\)"):
            JointState(slc, probes, amps)


class TestSampling:
    def test_fixed_seed_reproduces_counts(self):
        dyn, s0 = model()
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(0.01), s0)
        dist = outcome_distribution(js, detector_pdi(dyn))
        c1 = sample(dist, 10_000, seed=99)
        c2 = sample(dist, 10_000, seed=99)
        assert c1 == c2
        assert sum(c1.values()) == 10_000

    def test_zero_strength_samples_are_all_unexcited(self):
        dyn, s0 = model()
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(0.0), s0)
        dist = outcome_distribution(js, detector_pdi(dyn))
        counts = sample(dist, 5000, seed=1)
        assert all(kappa == "o" for _, kappa in counts)

    def test_empirical_conditional_matches_strength(self):
        eps = 0.01
        dyn, s0 = model(1 / 3)
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(eps), s0)
        dist = outcome_distribution(js, detector_pdi(dyn))
        counts = sample(dist, 200_000, seed=7)
        n_f = sum(c for (det, _), c in counts.items() if det == "F4")
        n_fa = counts.get(("F4", "a"), 0)
        sigma = math.sqrt(eps * (1 - eps) / n_f)
        assert abs(n_fa / n_f - eps) <= 3 * sigma

    @pytest.mark.parametrize(
        "n", [1.5, 2.0, np.float64(3.0), "3", None], ids=["1.5", "2.0", "float64", "str", "None"]
    )
    def test_sample_count_must_be_an_integer(self, n):
        # a fractional count was truncated (1.5 drew one sample)
        dist = OutcomeDistribution({("F4", "o"): 1.0})
        with pytest.raises(ValueError, match=f"^{re.escape(f'sample count {n!r} is not an integer')}$"):
            sample(dist, n, 3)

    @pytest.mark.parametrize(
        "seed", [1.5, 2.0, "x", None, -1], ids=["1.5", "2.0", "str", "None", "negative"]
    )
    def test_sample_seed_must_be_a_non_negative_integer(self, seed):
        # numpy's SeedSequence raised a bare TypeError, or its own message for -1
        dist = OutcomeDistribution({("F4", "o"): 1.0})
        if seed == -1:
            message = "sample seed must be >= 0, got -1"
        else:
            message = f"sample seed {seed!r} is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample(dist, 3, seed)
        assert sample(dist, 3, np.int64(7)) == sample(dist, 3, 7) == {("F4", "o"): 3}

    def test_sample_count_must_be_positive(self):
        dyn, s0 = model()
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(0.01), s0)
        dist = outcome_distribution(js, detector_pdi(dyn))
        with pytest.raises(ValueError, match=">= 1"):
            sample(dist, 0, seed=1)

    def test_mass_deviation_cut_is_1e_6(self):
        # |total - 1| = 1e-6 exactly is not a float difference near 1, so
        # the totals are the floats on each side of the cut: 1 + 1e-6
        # rounds to a deviation below it, and the next float and 1 - 1e-6
        # deviate by more
        cut = _CUTS["mass deviation"]
        assert cut == 1e-6
        for total, accepted in ((1 + cut, True), (np.nextafter(1 + cut, 2.0), False),
                                (1 - cut, False)):
            dist = OutcomeDistribution({("F4", "o"): total})
            if accepted:
                assert sample(dist, 10, seed=1) == {("F4", "o"): 10}
            else:
                with pytest.raises(ValueError, match="is not 1"):
                    sample(dist, 10, seed=1)

    def test_sample_count_must_fit_an_int64(self):
        dyn, s0 = model()
        js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(0.01), s0)
        dist = outcome_distribution(js, detector_pdi(dyn))
        top = (1 << 63) - 1
        assert sum(sample(dist, top, seed=1).values()) == top
        with pytest.raises(ValueError, match=f"<= {top}, got {top + 1}"):
            sample(dist, top + 1, seed=1)


class TestSpecsAndStrength:
    def test_builtin_order_and_selection(self):
        assert tuple(p.probe_id for p in standard_probes("wba")) == ("a", "b", "w")
        with pytest.raises(ValueError, match="unknown probe ids"):
            standard_probes("az")

    @pytest.mark.parametrize("eps", [1.0, -0.1, float("nan"), "0.1", None, 0.1j, [0.1]])
    def test_strength_is_checked_at_intake(self, eps):
        # a non-number is out of range too, not a TypeError from the comparison
        message = f"epsilon must lie in [0, 1), got {eps!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProbeStrength(eps)

    def test_any_real_strength_and_ratio_are_accepted(self):
        for eps in (0.25, np.float64(0.25), np.float32(0.25), Fraction(1, 4)):
            assert (ProbeStrength(eps).eta, ProbeStrength(eps).zeta) == (0.5, math.sqrt(0.75))
        for alpha2 in (0.5, np.float64(0.5), Fraction(1, 2)):
            assert BeamSplitterParams(alpha2).alpha == math.sqrt(0.5)

    def test_strength_range(self):
        with pytest.raises(ValueError):
            ProbeStrength(1.0)
        with pytest.raises(ValueError):
            ProbeStrength(-0.1)
        s = ProbeStrength(0.25)
        assert s.eta == pytest.approx(0.5)
        assert s.zeta == pytest.approx(math.sqrt(0.75))

    def test_builtin_coupling_sites(self):
        assert BUILTIN_ORDER == ("a", "d", "b", "c", "e", "w")
        w = standard_probes("w")[0]
        assert w.couplings == {(2, "B"), (2, "C")}
