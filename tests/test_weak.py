import re

import numpy as np
import pytest

import qhistories.weak as weak_module
from qhistories.dynamics import transport
from qhistories.histories import (
    Defined, History, Incommensurate, VanishingProbabilityError, chain_ket, infer,
)
from qhistories.mzi import BeamSplitterParams, build_nested_mzi, source_ket
from qhistories.statespace import (
    Ket, Projector, basis_ket, identity_projector, inner, projector_from_ket,
    projector_from_labels,
)
from qhistories.weak import (
    PresenceVerdict,
    backward_state,
    presence_table,
    two_state_vector,
    weak_value,
)
from test_histories import block_dynamics, haar_dynamics

GRID = [round(0.1 * k, 10) for k in range(1, 10)]


def model(alpha2):
    dyn = build_nested_mzi(BeamSplitterParams(alpha2))
    return dyn, source_ket(dyn), basis_ket(dyn.slices[4], "F")


def random_projector(slc, rng):
    """Random rank-1 or rank-2 projector from a Haar-ish unitary."""
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    rank = int(rng.integers(1, 3))
    v = q[:, :rank]
    return Projector(slc, v @ v.conj().T)


class TestBackwardState:
    def test_at_inner_output_time(self):
        alpha2 = 1 / 3
        dyn, _, f4 = model(alpha2)
        out = backward_state(dyn, f4, 3)
        np.testing.assert_allclose(
            out.amplitudes, [np.sqrt(alpha2), np.sqrt(1 - alpha2), 0], atol=1e-14
        )

    def test_at_first_time(self):
        # the composed adjoint puts amplitude alpha on A and -beta on Q
        alpha2 = 1 / 3
        dyn, _, f4 = model(alpha2)
        out = backward_state(dyn, f4, 1)
        np.testing.assert_allclose(
            out.amplitudes,
            [np.sqrt(alpha2), 0, -np.sqrt(1 - alpha2)],
            atol=1e-14,
        )

    def test_at_final_time_is_identity(self):
        dyn, _, f4 = model(0.42)
        out = backward_state(dyn, f4, 4)
        np.testing.assert_allclose(out.amplitudes, f4.amplitudes, atol=1e-15)
        assert out.name == "F4@t4"

    def test_rejects_non_final_ket(self):
        dyn, s0, _ = model(0.42)
        want = f"final ket lives on {s0.slice}, not {dyn.slices[4]}"
        with pytest.raises(ValueError, match=re.escape(want)):
            backward_state(dyn, s0, 1)


class TestWeakValue:
    @pytest.mark.parametrize("alpha2", GRID)
    def test_middle_slice_channel_values(self, alpha2):
        dyn, s0, f4 = model(alpha2)
        beta2 = 1 - alpha2
        wv = lambda labels: weak_value(
            dyn, s0, f4, projector_from_labels(dyn.slices[2], labels)
        )
        assert wv({"A"}) == pytest.approx(1.0, abs=1e-12)
        assert wv({"B"}) == pytest.approx(-beta2 / (2 * alpha2), abs=1e-12)
        assert wv({"C"}) == pytest.approx(beta2 / (2 * alpha2), abs=1e-12)

    def test_special_ratio_gives_unit_loop_values(self):
        dyn, s0, f4 = model(1 / 3)
        b2 = projector_from_labels(dyn.slices[2], {"B"})
        assert weak_value(dyn, s0, f4, b2) == pytest.approx(-1.0, abs=1e-12)

    def test_inner_output_arm_value_is_zero(self):
        dyn, s0, f4 = model(0.42)
        e3 = projector_from_labels(dyn.slices[3], {"E"})
        assert abs(weak_value(dyn, s0, f4, e3)) <= 1e-14

    def test_incompatible_post_selection_rejected(self):
        dyn, _, _ = model(0.42)
        q0 = basis_ket(dyn.slices[0], "Q")
        h4 = basis_ket(dyn.slices[4], "H")
        a2 = projector_from_labels(dyn.slices[2], {"A"})
        with pytest.raises(ValueError, match="incompatible"):
            weak_value(dyn, q0, h4, a2)

    def test_linearity_sum_with_complement_is_one(self):
        rng = np.random.default_rng(5)
        dyn, s0, f4 = model(0.37)
        for t in (1, 2, 3):
            for _ in range(30):
                p = random_projector(dyn.slices[t], rng)
                total = weak_value(dyn, s0, f4, p) + weak_value(
                    dyn, s0, f4, p.complement()
                )
                assert abs(total - 1.0) <= 1e-12

    def test_sum_over_slice_decomposition_is_one(self):
        dyn, s0, f4 = model(0.52)
        for t in (1, 2, 3):
            total = sum(
                weak_value(dyn, s0, f4, projector_from_labels(dyn.slices[t], {lab}))
                for lab in dyn.slices[t].basis
            )
            assert abs(total - 1.0) <= 1e-12


def chain_weak_identity_residual(dyn, initial, final, p):
    """Residual of the identity tying the single-event chain ket to the
    weak value: <final | chain(initial, P, final)> = <backward|forward> <P>_w.
    Algebraically zero."""
    t = p.slice.time_index
    tsv = two_state_vector(dyn, initial, final, t)
    h = History(((t, p), (dyn.final_index, projector_from_ket(final))))
    return abs(inner(final, chain_ket(dyn, initial, h)) - tsv.overlap() * tsv.weak_value(p))


class TestChainWeakIdentity:
    @pytest.mark.parametrize(
        "alpha2,labels,t",
        [(1 / 3, {"A"}, 2), (0.42, {"B"}, 2), (1 / 3, {"C"}, 2), (0.7, {"E"}, 3)],
    )
    def test_channel_projectors(self, alpha2, labels, t):
        dyn, s0, f4 = model(alpha2)
        p = projector_from_labels(dyn.slices[t], labels)
        assert chain_weak_identity_residual(dyn, s0, f4, p) <= 1e-12

    def test_random_projectors(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            alpha2 = float(rng.uniform(0.05, 0.95))
            dyn, s0, f4 = model(alpha2)
            t = int(rng.integers(1, 4))
            p = random_projector(dyn.slices[t], rng)
            assert chain_weak_identity_residual(dyn, s0, f4, p) <= 1e-12


@pytest.fixture
def transport_times(monkeypatch):
    """The target time of every `transport` call made through `weak`."""
    times = []

    def counted(dyn, ket, t):
        times.append(t)
        return transport(dyn, ket, t)

    monkeypatch.setattr(weak_module, "transport", counted)
    return times


class TestPresence:
    def test_table_at_special_ratio(self):
        dyn, s0, f4 = model(1 / 3)
        channels = [
            projector_from_labels(dyn.slices[t], {lab})
            for t, lab in [(1, "A"), (1, "D"), (2, "A"), (2, "B"), (3, "E")]
        ]
        rows = {r.name: r for r in presence_table(dyn, s0, f4, channels)}
        assert rows["A1"].tsvf is PresenceVerdict.PRESENT
        assert rows["A1"].ch is PresenceVerdict.PRESENT
        assert rows["D1"].tsvf is PresenceVerdict.ABSENT
        assert rows["D1"].ch is PresenceVerdict.ABSENT
        assert rows["A2"].ch is PresenceVerdict.PRESENT
        assert rows["B2"].tsvf is PresenceVerdict.PRESENT
        assert rows["B2"].ch is PresenceVerdict.MEANINGLESS
        assert rows["E3"].tsvf is PresenceVerdict.ABSENT
        assert rows["E3"].ch is PresenceVerdict.ABSENT

    @pytest.mark.parametrize("alpha2", GRID)
    def test_history_verdict_agrees_with_inference(self, alpha2):
        dyn, s0, f4 = model(alpha2)
        f4_proj = projector_from_labels(dyn.slices[4], {"F"})
        channels = [
            projector_from_labels(dyn.slices[t], {lab})
            for t in (1, 2, 3)
            for lab in dyn.slices[t].basis
        ]
        for entry, q in zip(presence_table(dyn, s0, f4, channels), channels):
            verdict = infer(dyn, s0, f4_proj, q)
            if entry.ch is PresenceVerdict.MEANINGLESS:
                assert isinstance(verdict, Incommensurate)
            else:
                assert isinstance(verdict, Defined)
                expected = 1.0 if entry.ch is PresenceVerdict.PRESENT else 0.0
                assert verdict.probability == pytest.approx(expected, abs=1e-10)
                assert verdict.probability == pytest.approx(
                    entry.weak_value.real, abs=1e-10
                )

    def test_one_two_state_vector_per_distinct_time(self, transport_times):
        dyn, s0, f4 = model(0.42)
        channels = [
            projector_from_labels(dyn.slices[t], {lab})
            for t in (2, 3, 2)
            for lab in dyn.slices[t].basis
        ]
        expected = [weak_value(dyn, s0, f4, q) for q in channels]
        transport_times.clear()
        rows = presence_table(dyn, s0, f4, channels)
        # forward and backward once at t2, then at t3; t2 is read again
        assert transport_times == [2, 2, 3, 3]
        assert [r.weak_value for r in rows] == expected

    def test_vanishing_overlap_raises_at_the_first_channel(self, transport_times):
        dyn, _, _ = model(0.42)
        q0 = basis_ket(dyn.slices[0], "Q")
        h4 = basis_ket(dyn.slices[4], "H")
        channels = [projector_from_labels(dyn.slices[t], {"A"}) for t in (2, 1)]
        with pytest.raises(VanishingProbabilityError, match="incompatible"):
            presence_table(dyn, q0, h4, channels)
        assert transport_times == [2, 2]

    def test_two_state_vector_requires_common_slice(self):
        dyn, s0, f4 = model(0.3)
        want = f"backward ket lives on {f4.slice}, not {s0.slice}"
        with pytest.raises(ValueError, match=re.escape(want)):
            from qhistories.weak import TwoStateVector

            TwoStateVector(s0, f4)

    def test_overlap_is_transport_invariant(self):
        dyn, s0, f4 = model(0.61)
        overlaps = [two_state_vector(dyn, s0, f4, t).overlap() for t in range(5)]
        for o in overlaps[1:]:
            assert abs(o - overlaps[0]) <= 1e-12


def dense_weak_value(b, f, q):
    """<b|Q|f> / <b|f> by the dense product, as `weak_value` divides."""
    return complex(np.vdot(b, q.matrix @ f)) / complex(np.vdot(b, f))


def bits(z):
    return z.real.hex(), z.imag.hex()


class TestDenseOracle:
    """Label events applied by their support give the dense product's weak
    values bit for bit.  The block model's backward kets vanish outside one
    block, so many numerators are sums of exact zeros."""

    @pytest.mark.parametrize("steps, dim", [(haar_dynamics, 8), (block_dynamics, 64)],
                             ids=["haar-8", "block-64"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_weak_values_and_presence_table(self, steps, dim, seed):
        dyn, s0 = steps(seed, dim=dim)
        rng = np.random.default_rng([seed, 5])
        channels = []
        for slc in dyn.slices[1:-1]:
            channels += [identity_projector(slc), identity_projector(slc).complement()]
            channels += [projector_from_labels(slc, {lab}) for lab in slc.basis[:: dim // 8]]
            for _ in range(4):
                on = rng.random(dim) < rng.random()
                labels = {lab for lab, kept in zip(slc.basis, on) if kept} or {slc.basis[0]}
                p = projector_from_labels(slc, labels)
                channels += [p, p.complement()]
        final = basis_ket(dyn.slices[-1], "c1")
        table = presence_table(dyn, s0, final, channels)
        assert len(table) == len(channels)
        for q, row in zip(channels, table):
            t = q.slice.time_index
            want = dense_weak_value(
                transport(dyn, final, t).amplitudes, transport(dyn, s0, t).amplitudes, q
            )
            assert bits(row.weak_value) == bits(want)
            assert bits(weak_value(dyn, s0, final, q)) == bits(want)
