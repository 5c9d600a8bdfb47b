"""Acceptance suite: every numbered criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one verdict line per
criterion (each test also prints its own PASS line, visible with -s).
"""

import math
import time

import numpy as np
import pytest
from _closedforms import (
    expected_single_watcher_branches,
    expected_split_watcher_branches,
)
from test_dynamics import unitarity_residual
from test_weak import chain_weak_identity_residual
from test_probes import full_rotation_evolution

from qhistories.dynamics import Dynamics, StepUnitary, transport
from qhistories.histories import (
    Defined,
    Family,
    History,
    Incommensurate,
    born_probabilities,
    chain_ket,
    conditional_probability,
    consistency_check,
    infer,
    refine,
)
from qhistories.mzi import (
    BeamSplitterParams,
    NamedFamilyId,
    build_nested_mzi,
    named_family,
    source_ket,
    time_slices,
)
from qhistories.probes import (
    PDI,
    JointState,
    ProbeStrength,
    branch_components,
    coincidence_support,
    evolve_with_probes,
    outcome_distribution,
    sample,
    standard_probes,
)
from qhistories.statespace import (
    Ket,
    Projector,
    basis_ket,
    inner,
    pdi_validate,
    projector_from_ket,
    projector_from_labels,
)
from qhistories.weak import weak_value

GRID = [round(0.1 * k, 10) for k in range(1, 10)]
THIRD = 1 / 3


def model(alpha2):
    dyn = build_nested_mzi(BeamSplitterParams(alpha2))
    return dyn, source_ket(dyn)


def proj(dyn, t, labels):
    return projector_from_labels(dyn.slices[t], labels)


def _report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def random_projector(slc, rng):
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    rank = int(rng.integers(1, 3))
    v = q[:, :rank]
    return Projector(slc, v @ v.conj().T)


def test_criterion_01_straight_arm_weights_and_certainty():
    for alpha2 in GRID:
        beta2 = 1 - alpha2
        dyn, fam = named_family(NamedFamilyId.EQ8_FULL, BeamSplitterParams(alpha2))
        weights = born_probabilities(dyn, fam)
        refs = (alpha2**2, 0.0, beta2 + alpha2 * beta2)
        for h, ref in zip(fam.histories, refs):
            assert abs(weights[h] - ref) <= 1e-12
        assert abs(sum(weights.values()) - 1.0) <= 1e-12
        pr = conditional_probability(
            dyn, fam, [(4, proj(dyn, 4, {"F"}))], [(2, proj(dyn, 2, {"A"}))]
        )
        assert abs(pr - 1.0) <= 1e-12
    _report(1, "Born weights {a^4, 0, b^2+a^2 b^2} and Pr(A2|S0,F4)=1 on the grid")


def test_criterion_02_refined_family_keeps_one_history():
    for alpha2 in (0.3, THIRD, 0.77):
        dyn, fam = named_family(NamedFamilyId.F_A_PRIME, BeamSplitterParams(alpha2))
        assert len(fam.histories) == 18
        nonzero = [
            h
            for h in fam.histories
            if chain_ket(dyn, fam.initial, h).norm() > 1e-12
        ]
        assert len(nonzero) == 1
        assert nonzero[0].label() == "A1,A2,A3,F4"
        pr = conditional_probability(
            dyn,
            fam,
            [(4, proj(dyn, 4, {"F"}))],
            [(t, proj(dyn, t, {"A"})) for t in (1, 2, 3)],
        )
        assert abs(pr - 1.0) <= 1e-12
    _report(2, "18 histories, one surviving chain ket, Pr(A1,A2,A3|S0,F4)=1")


def test_criterion_03_upper_loop_families_inconsistent():
    for alpha2 in GRID:
        beta2 = 1 - alpha2
        p = BeamSplitterParams(alpha2)
        dyn, fam_b = named_family(NamedFamilyId.F_B, p)
        assert not consistency_check(dyn, fam_b).consistent
        _, fam_abc = named_family(NamedFamilyId.F_ABC, p)
        assert not consistency_check(dyn, fam_abc).consistent
        f4_ket = basis_ket(dyn.slices[4], "F")
        coeffs = [
            inner(f4_ket, chain_ket(dyn, fam_b.initial, h)) for h in fam_b.histories
        ]
        assert abs(coeffs[0] - (-beta2 / 2)) <= 1e-12
        assert abs(coeffs[1] - (alpha2 + beta2 / 2)) <= 1e-12
    _report(3, "F_B and F_ABC inconsistent on the grid with coefficients -b^2/2, a^2+b^2/2")


def test_criterion_04_lower_loop_family_special_ratio():
    for alpha2 in GRID:
        dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(alpha2))
        assert not consistency_check(dyn, fam).consistent
    dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(THIRD))
    assert consistency_check(dyn, fam).consistent
    weights = born_probabilities(dyn, fam)
    assert abs(sum(weights.values()) - 1 / 9) <= 1e-12
    assert abs(weights[fam.histories[0]] - 1 / 9) <= 1e-12
    pr = conditional_probability(
        dyn, fam, [(4, proj(dyn, 4, {"F"}))], [(2, proj(dyn, 2, {"C"}))]
    )
    assert abs(pr - 1.0) <= 1e-12
    _report(4, "F_C inconsistent off 1/3; at 1/3: Pr(F4)=Pr(C2,F4)=1/9, Pr(C2|S0,F4)=1")


def test_criterion_05_backward_wave_family_consistent():
    for alpha2 in GRID:
        dyn, fam = named_family(NamedFamilyId.EQ25_BACKWARD, BeamSplitterParams(alpha2))
        assert consistency_check(dyn, fam).consistent
    _report(5, "backward-wave refinement family consistent on the grid")


def test_criterion_06_straight_through_variant():
    for alpha2 in GRID:
        beta2 = 1 - alpha2
        dyn, fam = named_family(NamedFamilyId.EQ26_NO_BS34, BeamSplitterParams(alpha2))
        assert consistency_check(dyn, fam).consistent
        weights = born_probabilities(dyn, fam)
        by_label = {h.label(): w for h, w in weights.items()}
        refs = {"A2,G4": alpha2, "B2,H4": beta2 / 2, "C2,F4": beta2 / 2}
        for label, w in by_label.items():
            assert abs(w - refs.get(label, 0.0)) <= 1e-12
        assert abs(sum(weights.values()) - 1.0) <= 1e-12
    _report(6, "no-BS3/4 family consistent with weights {a^2, b^2/2, b^2/2}")


def test_criterion_07_single_watcher_configuration():
    for alpha2 in (THIRD, 0.42):
        for eps in (1e-4, 1e-2):
            dyn, s0 = model(alpha2)
            js = evolve_with_probes(
                dyn, standard_probes("adew"), ProbeStrength(eps), s0
            )
            branches = {br.kappa: br.phi.amplitudes for br in branch_components(js)}
            expected = expected_single_watcher_branches(alpha2, eps)
            assert set(branches) == set(expected)
            for kappa, ref in expected.items():
                assert np.max(np.abs(branches[kappa] - ref)) <= 1e-12
            slc = dyn.slices[4]
            pdi = PDI(
                slc,
                tuple(projector_from_labels(slc, {lab}) for lab in slc.basis),
            )
            dist = outcome_distribution(js, pdi)
            assert abs(dist.p("F4", "a") - eps * alpha2**2) <= 1e-12
            assert abs(dist.given_detector("F4")["a"] - eps) <= 1e-12
            leaked = sum(
                v
                for (det, kappa), v in dist.probs.items()
                if det in ("F4", "G4") and set(kappa) & {"d", "w", "e"}
            )
            assert leaked <= 1e-14
    _report(7, "single-watcher branches, Pr(F4,a)=eps*a^4, no d/w/e leakage into F or G")


def test_criterion_08_split_watcher_configuration():
    for alpha2 in (THIRD, 0.42):
        eps = 1e-2
        dyn, s0 = model(alpha2)
        js = evolve_with_probes(
            dyn, standard_probes("adbce"), ProbeStrength(eps), s0
        )
        branches = {br.kappa: br.phi.amplitudes for br in branch_components(js)}
        expected = expected_split_watcher_branches(alpha2, eps)
        assert set(branches) == set(expected)
        for kappa, ref in expected.items():
            assert np.max(np.abs(branches[kappa] - ref)) <= 1e-12
        slc = dyn.slices[4]
        pdi = PDI(
            slc, tuple(projector_from_labels(slc, {lab}) for lab in slc.basis)
        )
        support = coincidence_support(outcome_distribution(js, pdi))
        assert support["H4"] == {"o", "d", "b", "c", "db", "dc"}
        fg = support["F4"] | support["G4"]
        assert fg == {"o", "a", "b", "c", "db", "dc", "be", "ce", "dbe", "dce"}
        assert support["F4"] == support["G4"] == fg
    _report(8, "split-watcher branch amplitudes and coincidence lists match exactly")


def test_criterion_09_all_probes_exclusivity():
    for alpha2 in (THIRD, 0.42):
        for eps in (1e-2, 0.25):
            dyn, s0 = model(alpha2)
            js = evolve_with_probes(
                dyn, standard_probes("adbcew"), ProbeStrength(eps), s0
            )
            slc = dyn.slices[4]
            pdi = PDI(
                slc, tuple(projector_from_labels(slc, {lab}) for lab in slc.basis)
            )
            dist = outcome_distribution(js, pdi)
            for (_, kappa), v in dist.probs.items():
                if v <= 1e-10:
                    continue
                excited = set(kappa) - {"o"}
                assert not {"b", "c"} <= excited
                if "w" in excited and not excited & {"b", "c"}:
                    assert "e" not in excited
    _report(9, "all-probes runs: b,c never coincide; w without b,c excludes e")


def test_criterion_10_weak_values_and_inference_criterion():
    rng = np.random.default_rng(1009)
    for alpha2 in GRID:
        beta2 = 1 - alpha2
        dyn, s0 = model(alpha2)
        f4 = basis_ket(dyn.slices[4], "F")
        wv = lambda t, labels: weak_value(
            dyn, s0, f4, projector_from_labels(dyn.slices[t], labels)
        )
        assert abs(wv(2, {"A"}) - 1.0) <= 1e-12
        assert abs(wv(2, {"B"}) - (-beta2 / (2 * alpha2))) <= 1e-12
        assert abs(wv(2, {"C"}) - beta2 / (2 * alpha2)) <= 1e-12

    dyn, s0 = model(0.37)
    f4 = basis_ket(dyn.slices[4], "F")
    for _ in range(100):
        t = int(rng.integers(1, 4))
        p = random_projector(dyn.slices[t], rng)
        assert chain_weak_identity_residual(dyn, s0, f4, p) <= 1e-12
        total = weak_value(dyn, s0, f4, p) + weak_value(dyn, s0, f4, p.complement())
        assert abs(total - 1.0) <= 1e-12

    for alpha2 in GRID:
        dyn, s0 = model(alpha2)
        f4 = basis_ket(dyn.slices[4], "F")
        f4_proj = projector_from_labels(dyn.slices[4], {"F"})
        for t in (1, 2, 3):
            for lab in dyn.slices[t].basis:
                q = projector_from_labels(dyn.slices[t], {lab})
                value = weak_value(dyn, s0, f4, q)
                verdict = infer(dyn, s0, f4_proj, q)
                is_sharp = min(abs(value), abs(value - 1.0)) <= 1e-10
                if is_sharp:
                    assert isinstance(verdict, Defined)
                    assert abs(verdict.probability - value.real) <= 1e-10
                else:
                    assert isinstance(verdict, Incommensurate)
    _report(10, "weak values, chain-ket identity, complement sum, inference criterion")


def test_criterion_11_inference_chain():
    for alpha2 in (0.2, 0.25, 0.5, THIRD):
        dyn, s0 = model(alpha2)
        f4 = proj(dyn, 4, {"F"})
        verdict = infer(dyn, s0, f4, proj(dyn, 2, {"B", "C"}))
        assert isinstance(verdict, Defined)
        assert abs(verdict.probability) <= 1e-12
    for alpha2 in (0.2, 0.25, 0.5):
        dyn, s0 = model(alpha2)
        verdict = infer(dyn, s0, proj(dyn, 4, {"F"}), proj(dyn, 2, {"C"}))
        assert isinstance(verdict, Incommensurate)
    dyn, s0 = model(THIRD)
    verdict = infer(dyn, s0, proj(dyn, 4, {"F"}), proj(dyn, 2, {"C"}))
    assert isinstance(verdict, Defined)
    assert abs(verdict.probability - 1.0) <= 1e-12
    _report(11, "not-in-loop is certain; in-C is meaningless off 1/3 and certain at 1/3")


def test_criterion_12_monte_carlo_conditional():
    started = time.monotonic()
    eps = 0.01
    dyn, s0 = model(THIRD)
    js = evolve_with_probes(dyn, standard_probes("adew"), ProbeStrength(eps), s0)
    slc = dyn.slices[4]
    pdi = PDI(slc, tuple(projector_from_labels(slc, {lab}) for lab in slc.basis))
    dist = outcome_distribution(js, pdi)
    counts = sample(dist, 1_000_000, seed=20160701)
    n_f = sum(c for (det, _), c in counts.items() if det == "F4")
    n_fa = counts.get(("F4", "a"), 0)
    sigma = math.sqrt(eps * (1 - eps) / n_f)
    assert abs(n_fa / n_f - eps) <= 3 * sigma
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0
    _report(12, f"10^6 samples: empirical Pr(a|F) within 3 sigma of eps ({elapsed:.2f}s)")


def test_criterion_13_property_suite():
    rng = np.random.default_rng(8128)

    # unitarity of construction plus random unitary steps
    for _ in range(100):
        alpha2 = float(rng.uniform(0.01, 0.99))
        dyn = build_nested_mzi(BeamSplitterParams(alpha2))
        assert max(unitarity_residual(st) for st in dyn.steps) <= 1e-10
    slices = time_slices()
    for _ in range(100):
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(z)
        st = StepUnitary(slices[0], slices[1], q)
        assert unitarity_residual(st) <= 1e-10

    # round-trip transport
    dyn, _ = model(0.37)
    for _ in range(100):
        j, k = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        ket = Ket(dyn.slices[j], rng.normal(size=3) + 1j * rng.normal(size=3))
        back = transport(dyn, transport(dyn, ket, k), j)
        assert np.max(np.abs(back.amplitudes - ket.amplitudes)) <= 1e-10

    # PDI closure for random label partitions and random ray splits
    for _ in range(100):
        slc = slices[int(rng.integers(0, 5))]
        cut = int(rng.integers(1, 3))
        labels = list(slc.basis)
        rng.shuffle(labels)
        parts = [
            projector_from_labels(slc, set(labels[:cut])),
            projector_from_labels(slc, set(labels[cut:])),
        ]
        report = pdi_validate(parts)
        assert report.ok and report.max_residual <= 1e-10
        ray = projector_from_ket(
            Ket(slc, rng.normal(size=3) + 1j * rng.normal(size=3))
        )
        report = pdi_validate([ray, ray.complement()])
        assert report.ok and report.max_residual <= 1e-10

    # joint-state norm conservation
    for _ in range(100):
        alpha2 = float(rng.uniform(0.01, 0.99))
        eps = float(rng.uniform(0.0, 0.9))
        ids = [pid for pid in "adbcew" if rng.random() < 0.6] or ["a"]
        upto = int(rng.integers(0, 5))
        dyn, s0 = model(alpha2)
        js = evolve_with_probes(
            dyn, standard_probes(ids), ProbeStrength(eps), s0, upto=upto
        )
        assert abs(np.sum(np.abs(js.amplitudes) ** 2) - 1.0) <= 1e-10

    # completion independence of the probe rotation: the library's readout
    # against an evolution that applies the full rotation, its completion
    # times exp(i phase)
    for _ in range(100):
        alpha2 = float(rng.uniform(0.05, 0.95))
        eps = float(rng.uniform(0.0, 0.9))
        phase = float(rng.uniform(0, 2 * np.pi))
        dyn, s0 = model(alpha2)
        slc = dyn.slices[4]
        pdi = PDI(slc, tuple(projector_from_labels(slc, {lab}) for lab in slc.basis))
        probes = standard_probes("adbcew")
        js = evolve_with_probes(dyn, probes, ProbeStrength(eps), s0)
        base = outcome_distribution(js, pdi)
        alt = outcome_distribution(
            JointState(js.slice, probes, full_rotation_evolution(dyn, probes, eps, s0, phase)),
            pdi,
        )
        diff = max(abs(base.probs[k] - alt.probs[k]) for k in base.probs)
        assert diff <= 1e-10

    # framework independence of shared conditional probabilities
    comparisons = 0
    attempts = 0
    queries = [
        (1, {"A"}), (1, {"D"}), (1, {"Q"}),
        (2, {"A"}), (2, {"B", "C"}),
        (3, {"A"}), (3, {"E"}), (3, {"H"}),
    ]
    while comparisons < 100:
        attempts += 1
        assert attempts < 200, "not enough comparable family pairs"
        alpha2 = float(rng.uniform(0.05, 0.95))
        dyn, s0 = model(alpha2)
        f4 = proj(dyn, 4, {"F"})
        t, labels = queries[int(rng.integers(0, len(queries)))]
        q = projector_from_labels(dyn.slices[t], labels)
        verdict = infer(dyn, s0, f4, q)
        if not isinstance(verdict, Defined):
            continue
        coarse = Family(
            s0,
            (
                History(((t, q), (4, f4))),
                History(((t, q.complement()), (4, f4))),
            ),
        )
        others = [u for u in (1, 2, 3) if u != t]
        t_other = others[int(rng.integers(0, len(others)))]
        fine = refine(
            coarse,
            t_other,
            [
                projector_from_labels(dyn.slices[t_other], {lab})
                for lab in dyn.slices[t_other].basis
            ],
        )
        if not consistency_check(dyn, fine).consistent:
            continue
        pr = conditional_probability(dyn, fine, [(4, f4)], [(t, q)])
        assert abs(pr - verdict.probability) <= 1e-10
        comparisons += 1
    _report(13, f"property suite over randomized instances (framework pairs: {comparisons})")
