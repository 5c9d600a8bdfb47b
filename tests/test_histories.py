import functools
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import cases, run

import qhistories.statespace as statespace
from qhistories.dynamics import Dynamics, StepUnitary, transport
from qhistories.histories import (
    ConsistencyReport,
    Defined,
    Family,
    History,
    Incommensurate,
    InconsistentFamilyError,
    InexpressibleEventError,
    _decoherence,
    _walk,
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
)
from qhistories.probes import (
    ProbeSpec,
    ProbeStrength,
    coincidence_support,
    evolve_with_probes,
    outcome_distribution,
)
from qhistories.statespace import (
    PDI,
    Ket,
    Projector,
    TimeSlice,
    basis_ket,
    identity_projector,
    inner,
    projector_from_ket,
    projector_from_labels,
)
from qhistories.weak import presence_table, weak_value

GRID = [round(0.1 * k, 10) for k in range(1, 10)]


def model(alpha2):
    dyn = build_nested_mzi(BeamSplitterParams(alpha2))
    return dyn, source_ket(dyn)


def proj(dyn, t, labels):
    return projector_from_labels(dyn.slices[t], labels)


_P1 = projector_from_labels(TimeSlice(1, ("A", "B")), {"A"})


@pytest.mark.parametrize(
    "events, message",
    [
        (((1.5, _P1),), "history event time 1.5 is not an integer"),
        (((np.float64(1.9), _P1),), f"history event time {np.float64(1.9)!r} is not an integer"),
        ((("1", _P1),), "history event time '1' is not an integer"),
        (((1, "x"),), "history event (1, 'x') is not a (time, projector) pair"),
        (((1,),), "history event (1,) is not a (time, projector) pair"),
        (5, "history event 5 is not a (time, projector) pair"),
    ],
    ids=["float-time", "float64-time", "str-time", "str-projector", "no-projector", "int-events"],
)
def test_history_rejects_malformed_events(events, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        History(events)
    # a time `operator.index` accepts is held as the int it gives
    (t, p), = History(((np.int64(1), _P1),)).events
    assert type(t) is int and (t, p) == (1, _P1)


class TestChainKets:
    def test_straight_arm_history(self):
        dyn, s0 = model(1 / 3)
        h = History(((2, proj(dyn, 2, {"A"})), (4, proj(dyn, 4, {"F"}))))
        ket = chain_ket(dyn, s0, h)
        np.testing.assert_allclose(ket.amplitudes, [1 / 3, 0, 0], atol=1e-14)

    def test_complement_history_vanishes(self):
        dyn, s0 = model(1 / 3)
        h = History(((2, proj(dyn, 2, {"B", "C"})), (4, proj(dyn, 4, {"F"}))))
        assert chain_ket(dyn, s0, h).norm() <= 1e-14

    def test_single_loop_arm_history(self):
        dyn, s0 = model(1 / 3)
        h = History(((2, proj(dyn, 2, {"B"})), (4, proj(dyn, 4, {"F"}))))
        ket = chain_ket(dyn, s0, h)
        beta2 = 2 / 3
        np.testing.assert_allclose(ket.amplitudes, [-beta2 / 2, 0, 0], atol=1e-14)

    @pytest.mark.parametrize("alpha2", [0.3, 0.62])
    def test_matches_dense_product_chain_oracle(self, alpha2):
        # multiply the full projector/unitary product explicitly
        dyn, s0 = model(alpha2)
        p2, p4 = proj(dyn, 2, {"B", "C"}), proj(dyn, 4, {"F", "G"})
        h = History(((2, p2), (4, p4)))
        t20 = dyn.steps[1].matrix @ dyn.steps[0].matrix
        t42 = dyn.steps[3].matrix @ dyn.steps[2].matrix
        expected = p4.matrix @ t42 @ p2.matrix @ t20 @ s0.amplitudes
        got = chain_ket(dyn, s0, h)
        assert np.max(np.abs(got.amplitudes - expected)) <= 1e-12

    def test_trivial_history_is_unitary_evolution(self):
        dyn, s0 = model(0.4)
        h = History(((4, identity_projector(dyn.slices[4])),))
        ket = chain_ket(dyn, s0, h)
        assert ket.norm() ** 2 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            ket.amplitudes, transport(dyn, s0, 4).amplitudes, atol=1e-14
        )

    def test_rejects_projector_on_wrong_slice(self):
        dyn, s0 = model(0.4)
        with pytest.raises(ValueError, match="strictly increase|slice"):
            History(((2, proj(dyn, 3, {"A"})),))

    def test_event_free_history_returns_the_initial_ket(self):
        dyn, s0 = model(0.4)
        assert chain_ket(dyn, s0, History(())) is s0

    @pytest.mark.parametrize("labels", ["A", "BC", "ABC"])
    def test_label_event_at_the_kets_own_time_is_the_dense_product(self, labels):
        # built without a scan or a product, from the event's support
        dyn, _ = model(0.4)
        k = Ket(dyn.slices[2], [complex(-0.0, 0.6), complex(0.8, -0.0), -1e-300])
        p = proj(dyn, 2, set(labels))
        got = chain_ket(dyn, k, History(((2, p),)))
        assert got.slice is dyn.slices[2]
        assert got.amplitudes.tobytes() == (p.matrix @ k.amplitudes).tobytes()
        assert got.amplitudes.flags.writeable is False

    @pytest.mark.parametrize("seed", [None, 3])
    def test_events_before_the_kets_time_carry_it_back_then_forth(self, seed):
        # a ket at t4 and events at t2 then t3: transport back to t2, the
        # projector, transport forward to t3, the projector, bit for bit
        if seed is None:
            dyn, s0 = model(0.4)
            p2, p3 = proj(dyn, 2, {"A", "B"}), proj(dyn, 3, {"A", "E"})
        else:
            dyn, s0 = haar_dynamics(seed)
            rng = np.random.default_rng(seed)
            p2 = label_parts(dyn.slices[2], range(5))[0]
            p3 = projector_from_ket(Ket(dyn.slices[3], rng.normal(size=8) + 1j * rng.normal(size=8)))
        k4 = transport(dyn, s0, 4)
        got = chain_ket(dyn, k4, History(((2, p2), (3, p3))))
        back = Ket(dyn.slices[2], p2.matrix @ transport(dyn, k4, 2).amplitudes)
        want = p3.matrix @ transport(dyn, back, 3).amplitudes
        assert got.slice is dyn.slices[3]
        assert got.amplitudes.tobytes() == want.tobytes()
        assert got.norm() > 0.1

    def test_family_walk_rejects_kets_and_events_foreign_to_the_dynamics(self):
        dyn, s0 = model(0.4)
        foreign = TimeSlice(2, ("X", "Y", "Z"))
        a2 = proj(dyn, 2, {"A"})
        x2 = projector_from_labels(foreign, {"X"})
        fam = Family(s0, (History(((2, a2),)), History(((2, x2),))))
        want = f"event lives on {foreign}, not {dyn.slices[2]}"
        with pytest.raises(ValueError, match=re.escape(want)):
            consistency_check(dyn, fam)
        stray = Ket(TimeSlice(0, ("X", "Y", "Z")), [1, 0, 0])
        want = f"ket lives on {stray.slice}, not {dyn.slices[0]}"
        with pytest.raises(ValueError, match=re.escape(want)):
            consistency_check(dyn, Family(stray, (History(((2, a2),)),)))

    def test_family_walk_rejects_an_event_past_the_last_slice(self):
        # checked before the walk carries anything, so no IndexError
        dyn, s0 = model(0.4)
        past = projector_from_labels(TimeSlice(7, ("X", "Y")), {"X"})
        fam = Family(s0, (History(((2, proj(dyn, 2, {"A"})),)), History(((7, past),))))
        with pytest.raises(ValueError, match="time index 7 outside range 0..4"):
            consistency_check(dyn, fam)


class TestConsistency:
    @pytest.mark.parametrize("alpha2", GRID)
    def test_straight_arm_family_always_consistent(self, alpha2):
        dyn, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(alpha2))
        assert consistency_check(dyn, fam).consistent

    def test_loop_arm_family_overlap_at_special_ratio(self):
        dyn, fam = named_family(NamedFamilyId.F_B, BeamSplitterParams(1 / 3))
        report = consistency_check(dyn, fam)
        assert not report.consistent
        assert report.max_overlap == pytest.approx(2 / 9, abs=1e-12)
        ((i, j, ip),) = report.offending_pairs
        assert (i, j) == (0, 1)
        assert ip.real == pytest.approx(-2 / 9, abs=1e-12)

    def test_other_loop_arm_family_consistent_only_at_special_ratio(self):
        dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(1 / 3))
        assert consistency_check(dyn, fam).consistent
        dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(0.25))
        report = consistency_check(dyn, fam)
        assert not report.consistent
        assert report.max_overlap == pytest.approx(0.046875, abs=1e-12)


def dense_chain_rows(dyn, initial, histories):
    """Oracle: every chain ket as an explicit product of step and event
    matrices, carried on to the latest event time of the family."""
    t0 = initial.slice.time_index
    t_max = max((h.times[-1] for h in histories if h.events), default=t0)
    rows = []
    for h in histories:
        events = dict(h.events)
        v = initial.amplitudes
        for t in range(t0 + 1, t_max + 1):
            v = dyn.steps[t - 1].matrix @ v
            if t in events:
                v = events[t].matrix @ v
        rows.append(v)
    return np.array(rows)


def rank_one(slc, spec):
    """Rank-one projector onto |X> + |Y> or |X> - |Y> for a spec "(X+Y)" or
    "(X-Y)": a non-diagonal event."""
    v = np.zeros(slc.dim, dtype=complex)
    v[slc.axis(spec[1])] = 1.0
    v[slc.axis(spec[3])] = 1.0 if spec[2] == "+" else -1.0
    return projector_from_ket(Ket(slc, v), spec)


def build_histories(dyn, events):
    """Histories from lists of (time, spec).  A spec names channels ("BC"),
    or a rank-one event in parentheses (see rank_one).  Equal specs at one
    time give one shared Projector, so histories share event prefixes; "BC"
    and "CB" give two distinct Projectors with equal matrices."""
    made = {}

    def event(t, spec):
        if (t, spec) not in made:
            slc = dyn.slices[t]
            made[t, spec] = (
                rank_one(slc, spec) if spec[0] == "(" else projector_from_labels(slc, set(spec))
            )
        return made[t, spec]

    return tuple(History(tuple((t, event(t, spec)) for t, spec in h)) for h in events)


def per_history_decoherence(dyn, fam, tol=1e-10):
    """Oracle for `_decoherence`: each history's chain built on its own by
    transport and projection, carried on to the latest event time by
    `transport`; the report then read from D as the engine reads it."""
    kets = []
    for h in fam.histories:
        k = fam.initial
        for t, p in h.events:
            k = Ket(p.slice, p.matrix @ transport(dyn, k, t).amplitudes)
        kets.append(k)
    t_max = max(k.slice.time_index for k in kets)
    c = np.array([transport(dyn, k, t_max).amplitudes for k in kets])
    d = c.conj() @ c.T
    norms = np.array([np.linalg.norm(row) for row in c])
    i, j = np.triu_indices(len(kets), 1)
    overlaps = np.abs(d[i, j]) / np.maximum(1.0, norms[i] * norms[j])
    worst = float(overlaps.max(initial=0.0))
    bad = overlaps > tol
    offending = tuple(zip(i[bad].tolist(), j[bad].tolist(), d[i[bad], j[bad]].tolist()))
    return ConsistencyReport(worst <= tol, worst, offending), [k.norm() ** 2 for k in kets], d


def dense_coverage_residual(histories):
    """Oracle: the dense Kronecker products of each history's events (the
    identity where it has none), summed and compared with the identity."""
    slices = {t: p.slice for h in histories for t, p in h.events}
    times = sorted(slices)
    total = None
    for h in histories:
        mats = [
            np.eye(slices[t].dim) if h.event_at(t) is None else h.event_at(t).matrix
            for t in times
        ]
        op = reduce(np.kron, mats, np.ones((1, 1)))
        total = op if total is None else total + op
    dim = int(np.prod([slices[t].dim for t in times]))
    return float(np.max(np.abs(total - np.eye(dim))))


def is_complete_family(initial, histories):
    """Whether `Family(complete=True)` accepts `histories`; a refusal must
    say that they do not cover the identity."""
    try:
        Family(initial, histories, complete=True)
    except ValueError as exc:
        assert "complete family does not cover the identity" in str(exc)
        return False
    return True


#: Families whose histories end at different times, in the spec syntax of
#: build_histories: (event lists per history, complete, consistent for every
#: ratio).
COMMON_TIME_FAMILIES = {
    "A|BC-F|BC-GH": (
        [[(2, "A")], [(2, "BC"), (4, "F")], [(2, "BC"), (4, "GH")]], True, True
    ),
    "A|BC-F|CB-GH": (
        [[(2, "A")], [(2, "BC"), (4, "F")], [(2, "CB"), (4, "GH")]], True, True
    ),
    "B|AC-F|AC-GH": (
        [[(2, "B")], [(2, "AC"), (4, "F")], [(2, "AC"), (4, "GH")]], True, False
    ),
    "(A+B)|(A-B)|C": ([[(2, "(A+B)")], [(2, "(A-B)")], [(2, "C")]], True, True),
    "(A+B)-F|(A+B)-GH|(A-B)|C": (
        [[(2, "(A+B)"), (4, "F")], [(2, "(A+B)"), (4, "GH")], [(2, "(A-B)")], [(2, "C")]],
        True,
        False,
    ),
    "none|A": ([[], [(2, "A")]], False, False),
    "none": ([[]], False, True),
}


class TestCommonTime:
    """Chain kets that end at different times are compared at the latest
    event time of the family."""

    @pytest.mark.parametrize("alpha2", [0.3, 0.62])
    @pytest.mark.parametrize("name", sorted(COMMON_TIME_FAMILIES))
    def test_overlaps_and_weights_match_dense_oracle(self, name, alpha2):
        dyn, s0 = model(alpha2)
        events, complete, consistent = COMMON_TIME_FAMILIES[name]
        histories = build_histories(dyn, events)
        fam = Family(s0, histories, complete)
        dense_covers = dense_coverage_residual(histories) <= 1e-10
        assert is_complete_family(s0, histories) is dense_covers
        rows = dense_chain_rows(dyn, s0, histories)
        d = rows.conj() @ rows.T
        i, j = np.triu_indices(len(rows), 1)

        report = consistency_check(dyn, fam)
        assert report.consistent is consistent
        assert report.max_overlap == pytest.approx(
            np.max(np.abs(d[i, j]), initial=0.0), abs=1e-12
        )
        expected = [(a, b) for a, b in zip(i, j) if abs(d[a, b]) > 1e-10]
        assert [(a, b) for a, b, _ in report.offending_pairs] == expected
        for a, b, ip in report.offending_pairs:
            assert ip == pytest.approx(d[a, b], abs=1e-12)

        # the prefix-tree walk is bit-identical to independent chains
        got_report, got_weights, got_d = _decoherence(dyn, fam)
        ref_report, ref_weights, ref_d = per_history_decoherence(dyn, fam)
        assert got_d.tobytes() == ref_d.tobytes()
        assert got_weights == ref_weights
        assert got_report == ref_report == report

        if not consistent:
            with pytest.raises(InconsistentFamilyError):
                born_probabilities(dyn, fam)
            return
        weights = born_probabilities(dyn, fam)
        assert list(weights) == list(histories)
        np.testing.assert_allclose(
            list(weights.values()), np.sum(np.abs(rows) ** 2, axis=1), atol=1e-12
        )


def haar_unitary(rng, dim):
    """A Haar-random unitary: the QR of a complex Gaussian matrix, with the
    phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_dynamics(seed, dim=8, n_slices=5):
    """Seeded dense random unitaries (QR of complex Gaussians) joining
    slices of `dim` channels c0, c1, ..."""
    rng = np.random.default_rng(seed)
    slices = tuple(
        TimeSlice(t, tuple(f"c{i}" for i in range(dim))) for t in range(n_slices)
    )
    steps = [StepUnitary(a, b, haar_unitary(rng, dim)) for a, b in zip(slices, slices[1:])]
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Dynamics(slices, tuple(steps)), Ket(slices[0], v / np.linalg.norm(v))


def label_parts(slc, *groups):
    return tuple(projector_from_labels(slc, {f"c{i}" for i in g}) for g in groups)


def dense_refined_families(dyn, initial, seed):
    """Two families grown by `refine`, whose siblings share their parents
    at every level: a full 24-history tree, and an 18-history family whose
    six histories through the first t1 part end at t3, before the others."""
    rng = np.random.default_rng([seed, 1])
    s = dyn.slices
    a1, b1 = label_parts(s[1], range(4), range(4, 8))
    ray = projector_from_ket(Ket(s[2], rng.normal(size=8) + 1j * rng.normal(size=8)), "R2")
    t2 = (ray, ray.complement())  # non-diagonal events
    t3 = label_parts(s[3], (0, 5), (1, 2, 7), (3, 4, 6))
    r4 = projector_from_labels(s[4], {f"c{i}" for i in range(6)})
    tree = Family(initial, (History(()),))
    for t, parts in ((1, (a1, b1)), (2, t2), (3, t3), (4, label_parts(s[4], (0, 2, 4, 6), (1, 3, 5, 7)))):
        tree = refine(tree, t, parts)
    early = Family(initial, (History(((1, a1),)), History(((1, b1), (4, r4)))))
    for t, parts in ((2, t2), (4, label_parts(s[4], (0, 1), range(2, 6))), (3, t3)):
        early = refine(early, t, parts)
    return tree, early


class TestDenseRefinedFamilies:
    """The prefix-tree walk on dense dynamics, where every carry and every
    projection is a full complex matvec."""

    @pytest.mark.parametrize("seed", [5, 17])
    def test_match_per_history_oracle_bit_for_bit(self, seed):
        dyn, s0 = haar_dynamics(seed)
        tree, early = dense_refined_families(dyn, s0, seed)
        assert len(tree.histories) == 24 and len(early.histories) == 18
        ends = [h.times[-1] for h in early.histories]
        assert ends.count(3) == 6 and ends.count(4) == 12
        for fam in (tree, early):
            got_report, got_weights, got_d = _decoherence(dyn, fam)
            ref_report, ref_weights, ref_d = per_history_decoherence(dyn, fam)
            assert got_d.tobytes() == ref_d.tobytes()
            assert got_weights == ref_weights
            assert got_report == ref_report
            assert not got_report.consistent  # Haar steps do not decohere
            for h, w in zip(fam.histories, got_weights):
                # the histories `refine` builds are the ones History() checks
                assert History(h.events).events == h.events
                assert all(type(t) is int for t in h.times)
                assert chain_ket(dyn, s0, h).norm() ** 2 == w


def block_dynamics(seed, dim=64, block=4, n_slices=5):
    """Seeded steps that send each block of `block` channels onto another
    block, mixing inside it by a Haar unitary: label events on unions of
    blocks decohere."""
    rng = np.random.default_rng([seed, 2])
    slices = tuple(
        TimeSlice(t, tuple(f"c{i}" for i in range(dim))) for t in range(n_slices)
    )
    steps = []
    for a, b in zip(slices, slices[1:]):
        m = np.zeros((dim, dim), dtype=complex)
        for src, dst in enumerate(rng.permutation(dim // block)):
            m[dst * block:(dst + 1) * block, src * block:(src + 1) * block] = haar_unitary(rng, block)
        steps.append(StepUnitary(a, b, m))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Dynamics(slices, tuple(steps)), Ket(slices[0], v / np.linalg.norm(v))


def block_refined_tree(dyn, initial, seed, shape=(2, 3, 3, 4), block=4):
    """A tree grown by `refine` with `shape[t - 1]` parts at each time t,
    each part the channels of a random group of blocks."""
    rng = np.random.default_rng([seed, 3])
    n_blocks = dyn.slices[0].dim // block
    tree = Family(initial, (History(()),))
    for t, k in enumerate(shape, start=1):
        cuts = np.sort(rng.choice(np.arange(1, n_blocks), size=k - 1, replace=False))
        groups = np.split(rng.permutation(n_blocks), cuts)
        parts = label_parts(dyn.slices[t], *(
            [b * block + i for b in g for i in range(block)] for g in groups
        ))
        tree = refine(tree, t, parts)
    return tree


class TestBenchmarkSizeWalk:
    """The prefix-tree walk at the size of the benchmark's largest trees:
    72 histories over d = 64, every proper prefix shared by 4 to 36
    histories."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("steps", [haar_dynamics, block_dynamics])
    def test_match_per_history_oracle_bit_for_bit(self, steps, seed):
        dyn, s0 = steps(seed, dim=64, n_slices=5)
        fam = block_refined_tree(dyn, s0, seed)
        assert len(fam.histories) == 72
        got_report, got_weights, got_d = _decoherence(dyn, fam)
        ref_report, ref_weights, ref_d = per_history_decoherence(dyn, fam)
        assert got_d.tobytes() == ref_d.tobytes()
        assert [w.hex() for w in got_weights] == [w.hex() for w in ref_weights]
        assert got_report == ref_report
        assert got_report.consistent is (steps is block_dynamics)


class TestDepthWalk:
    """The walk goes down a family's prefix tree one depth at a time.  It
    stacks the carries that span the same steps into one product and
    applies a depth's label events with one masked product; every row
    keeps the bits of a lone product."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("k", [1, 2, 18])
    def test_stacked_step_products_are_lone_products_bit_for_bit(self, d, k):
        # numpy runs a (d, d) @ (k, d, 1) product as one gemv per row, the
        # gemv of a lone U @ v; a matrix-matrix product would not keep the bits
        rng = np.random.default_rng([d, k])
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        for u in (z, np.asfortranarray(z), z.conj().T, np.asfortranarray(z).conj().T):
            stacked = (u @ x[..., None])[..., 0]
            for i in range(k):
                assert stacked[i].tobytes() == (u @ x[i]).tobytes()

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_masked_label_events_are_lone_events_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        slc = TimeSlice(2, tuple(f"c{i}" for i in range(d)))
        x = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
        x[0, 0], x[1, -1], x[2, 0] = complex(-0.0, 0.5), complex(0.25, -0.0), -1e-300
        parts = [projector_from_labels(slc, {f"c{i}" for i in range(d) if rng.random() < 0.6} or {"c0"})
                 for _ in range(6)]
        slots = [0, 0, 1, 2, 3, 3]
        masked = x[slots] * np.array([p._on for p in parts]) + 0.0
        for row, slot, p in zip(masked, slots, parts):
            assert row.tobytes() == (p.matrix @ x[slot]).tobytes()

    def test_first_events_before_the_kets_time_stack_like_lone_chain_kets(self):
        # three first events at t1, t2 and t3 from a ket at t4: three
        # backward carries at depth one, each over its own steps
        dyn, s0 = haar_dynamics(5)
        k4 = transport(dyn, s0, 4)
        parts = {t: label_parts(dyn.slices[t], range(3), range(3, 8)) for t in (1, 2, 3, 4)}
        histories = [History(((t, parts[t][i]), (4, parts[4][j])))
                     for t in (1, 2, 3) for i in range(2) for j in range(2)]
        rows = _walk(dyn, k4.amplitudes, 4, [h.events for h in histories])
        for h, row in zip(histories, rows):
            assert row.tobytes() == chain_ket(dyn, k4, h).amplitudes.tobytes()

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_matches_the_per_history_oracle_on_random_families(self, data):
        # random trees on Haar steps: skipped times (carries of one depth to
        # different times), unequal lengths, event-free histories, label and
        # dense events at one depth, shared and duplicate prefixes
        dyn, fam = data.draw(_random_family())
        got, got_weights, got_d = _decoherence(dyn, fam)
        ref, ref_weights, ref_d = per_history_decoherence(dyn, fam)
        assert got_d.tobytes() == ref_d.tobytes()
        assert [w.hex() for w in got_weights] == [w.hex() for w in ref_weights]
        assert got.max_overlap.hex() == ref.max_overlap.hex()
        assert got.consistent is ref.consistent
        assert _pair_bits(got) == _pair_bits(ref)


@functools.cache
def _seeded_haar_dynamics(dim, seed):
    return haar_dynamics(seed, dim=dim)


@st.composite
def _random_family(draw):
    """A family on seeded Haar dynamics of d <= 8 channels: a few events per
    time t1..t4, label or dense, and histories that each pick a subset of
    the times (none at all included) and one of that time's events."""
    d = draw(st.sampled_from([1, 2, 3, 8]), label="d")
    dyn, s0 = _seeded_haar_dynamics(d, draw(st.integers(0, 2), label="seed"))
    rng = np.random.default_rng(d)
    pools = {}
    for t in range(1, 5):
        slc = dyn.slices[t]
        pools[t] = []
        for kind in draw(st.lists(st.booleans(), min_size=1, max_size=4), label=f"kinds t{t}"):
            if kind:
                on = draw(st.sets(st.integers(0, d - 1), min_size=1), label="channels")
                pools[t].append(projector_from_labels(slc, {f"c{i}" for i in on}))
            else:
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                pools[t].append(projector_from_ket(Ket(slc, v)))
    histories = []
    for _ in range(draw(st.integers(1, 12), label="histories")):
        times = sorted(draw(st.sets(st.integers(1, 4)), label="times"))
        histories.append(History(tuple((t, draw(st.sampled_from(pools[t]))) for t in times)))
    if draw(st.booleans(), label="repeat a history"):
        histories.append(draw(st.sampled_from(histories)))
    return dyn, Family(s0, tuple(histories))


def _pair_bits(report):
    """The offending pairs with each inner product as the bits of its parts."""
    return [(i, j, ip.real.hex(), ip.imag.hex()) for i, j, ip in report.offending_pairs]


class TestPairBookkeeping:
    """`_decoherence` reads its overlaps from one masked n x n ratio array;
    the oracle reads the strict upper triangle by index, as the engine once
    did.  Reports agree bit for bit, and the pairs are in row-major order."""

    def assert_matches_oracle(self, dyn, fam):
        got, got_weights, got_d = _decoherence(dyn, fam)
        ref, ref_weights, ref_d = per_history_decoherence(dyn, fam)
        assert got_d.tobytes() == ref_d.tobytes()
        assert [w.hex() for w in got_weights] == [w.hex() for w in ref_weights]
        assert got.max_overlap.hex() == ref.max_overlap.hex()
        assert got.consistent is ref.consistent
        assert _pair_bits(got) == _pair_bits(ref)
        pairs = [(i, j) for i, j, _ in got.offending_pairs]
        assert pairs == sorted(pairs) and all(i < j for i, j in pairs)
        return got

    def test_one_history_family(self):
        dyn, s0 = haar_dynamics(7)
        fam = Family(s0, (History(((2, label_parts(dyn.slices[2], range(3))[0]),)),))
        report = self.assert_matches_oracle(dyn, fam)
        assert report.max_overlap == 0.0
        assert report.consistent
        assert report.offending_pairs == ()

    def test_inconsistent_two_history_family(self):
        dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(0.25))
        report = self.assert_matches_oracle(dyn, fam)
        assert not report.consistent
        assert [(i, j) for i, j, _ in report.offending_pairs] == [(0, 1)]

    @pytest.mark.parametrize("alpha2", [0.001, 1 / 3, 0.5, 0.999])
    def test_prefix_duplicate_event_free_and_later_start_histories(self, alpha2):
        # A2 is a leaf and also the inner node of A2 -> F4, and it comes
        # twice; the event-free history is the root; D1 -> B2+C2 leaves the
        # root at another time
        dyn, s0 = model(alpha2)
        events = [[(2, "A")], [(2, "A"), (4, "F")], [(2, "A")], [], [(1, "D"), (2, "BC")]]
        fam = Family(s0, build_histories(dyn, events))
        assert fam.histories[0].events == fam.histories[2].events
        self.assert_matches_oracle(dyn, fam)

    @pytest.mark.parametrize("seed", [5, 17])
    def test_inconsistent_refined_haar_tree(self, seed):
        dyn, s0 = haar_dynamics(seed)
        tree, _ = dense_refined_families(dyn, s0, seed)
        report = self.assert_matches_oracle(dyn, tree)
        assert not report.consistent
        # some pairs decohere and some do not, so the mask selects within rows
        assert 0 < len(report.offending_pairs) < 24 * 23 // 2


class Gauge:
    """The problem of `dyn` in a Haar-random basis V_t at every slice t:
    steps V_{t+1} U_t V_t^dagger, events V_t P V_t^dagger, kets V_t k.  It
    is the same physics, but no rotated event records a support, so every
    projector check on it takes the dense path."""

    def __init__(self, dyn, seed):
        rng = np.random.default_rng([seed, 2])
        self.vs = [haar_unitary(rng, slc.dim) for slc in dyn.slices]
        steps = tuple(
            StepUnitary(st.from_slice, st.to_slice, self.vs[j + 1] @ st.matrix @ self.vs[j].conj().T)
            for j, st in enumerate(dyn.steps)
        )
        self.dyn = Dynamics(dyn.slices, steps)
        self._events = {}

    def ket(self, k):
        return Ket(k.slice, self.vs[k.slice.time_index] @ k.amplitudes, k.name)

    def event(self, p):
        # one rotated Projector per event, so shared prefixes stay shared
        if p not in self._events:
            v = self.vs[p.slice.time_index]
            self._events[p] = Projector(p.slice, v @ p.matrix @ v.conj().T, p.name)
            assert self._events[p]._on is None
        return self._events[p]

    def family(self, fam):
        histories = tuple(
            History(tuple((t, self.event(p)) for t, p in h.events)) for h in fam.histories
        )
        return Family(self.ket(fam.initial), histories, fam.complete)


def verdict(f, *args):
    """What `f(*args)` gives: its value, or the type of the ValueError it
    raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


def assert_same_verdict(got, want, bound):
    """The same exception type, or numbers within `bound`."""
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert abs(got - want) <= bound


def assert_gauge_invariant(dyn, fam, seed):
    """Compare `fam` on `dyn` with the same family in a `Gauge`: D, the
    weights, every conditional probability given a final event, `infer` and
    the weak values of every event of `fam` and every channel (and the
    identity) at each time before the last.

    The rounding bound, for a unit initial ket (Higham, ch. 3: a d x d
    product errs by at most d eps in norm): a chain ket takes at most 2T
    matrix-vector products over T slices.  Unrotated, that is 2 d T eps of
    error; rotated, each step or event is also formed by two products, so
    6 d T eps.  An entry of D or a weight (two chain kets and one inner
    product per side) then differs by at most 2 (2 + 6) d T eps + 2 d eps,
    under 20 d T eps.  A ratio's bound divides by its denominator: at most
    n weights over a condition's mass, or a matrix element over the
    two-state overlap.
    """
    g = Gauge(dyn, seed)
    rfam = g.family(fam)  # a complete family must still cover the identity
    t_final = dyn.final_index
    bound = 20 * max(slc.dim for slc in dyn.slices) * len(dyn.slices) * np.finfo(float).eps
    n = len(fam.histories)

    report, weights, d = _decoherence(dyn, fam)
    r_report, r_weights, r_d = _decoherence(g.dyn, rfam)
    assert r_report.consistent is report.consistent
    assert [p[:2] for p in r_report.offending_pairs] == [p[:2] for p in report.offending_pairs]
    assert abs(r_report.max_overlap - report.max_overlap) <= bound
    assert np.max(np.abs(r_d - d)) <= bound
    assert np.max(np.abs(np.subtract(r_weights, weights))) <= bound

    menu = {
        t: [identity_projector(slc), *(projector_from_labels(slc, {lab}) for lab in slc.basis)]
        for t, slc in enumerate(dyn.slices)
    }
    for h in fam.histories:
        for t, p in h.events:
            if not any(p is q for q in menu[t]):
                menu[t].append(p)
    queries = [(t, q) for t in range(1, t_final) for q in menu[t]]
    evolved = transport(dyn, fam.initial, t_final).amplitudes

    for c in menu[t_final]:
        mass = sum(
            w for h, w in zip(fam.histories, weights)
            if np.array_equal(c.matrix, (h.event_at(t_final) or identity_projector(c.slice)).matrix)
        )
        for t, q in queries:
            want = verdict(conditional_probability, dyn, fam, [(t_final, c)], [(t, q)])
            got = verdict(
                conditional_probability, g.dyn, rfam, [(t_final, g.event(c))], [(t, g.event(q))]
            )
            assert isinstance(want, type) or mass > 0
            assert_same_verdict(got, want, 2 * n * bound / mass if mass else 0.0)

        p_final = np.linalg.norm(c.matrix @ evolved) ** 2
        for t, q in queries:
            want = verdict(infer, dyn, fam.initial, c, q)
            got = verdict(infer, g.dyn, g.ket(fam.initial), g.event(c), g.event(q))
            got_kind, want_kind = (v if isinstance(v, type) else type(v) for v in (got, want))
            assert got_kind is want_kind
            if isinstance(want, Defined):
                assert abs(got.probability - want.probability) <= 4 * bound / p_final
            elif isinstance(want, Incommensurate):
                assert abs(got.report.max_overlap - want.report.max_overlap) <= bound

    for lab in dyn.slices[t_final].basis:
        final = basis_ket(dyn.slices[t_final], lab)
        overlap = abs(np.vdot(final.amplitudes, evolved))
        for t, q in queries:
            want = verdict(weak_value, dyn, fam.initial, final, q)
            got = verdict(weak_value, g.dyn, g.ket(fam.initial), g.ket(final), g.event(q))
            scale = 1 if isinstance(want, type) else (1 + abs(want)) / overlap
            assert_same_verdict(got, want, bound * scale)


class TestGaugeCovariance:
    """The label-support paths of the unrotated problem against the dense
    paths of the same problem in a `Gauge`."""

    @pytest.mark.parametrize("alpha2", [1 / 3, 0.5, 0.999])
    @pytest.mark.parametrize("fid", list(NamedFamilyId))
    def test_named_family(self, fid, alpha2):
        dyn, fam = named_family(fid, BeamSplitterParams(alpha2))
        assert_gauge_invariant(dyn, fam, seed=list(NamedFamilyId).index(fid))

    def test_refined_haar_tree(self):
        dyn, s0 = haar_dynamics(5)
        tree, _ = dense_refined_families(dyn, s0, 5)
        assert_gauge_invariant(dyn, tree, seed=5)


def decohering_haar_tree(seed):
    """A tree refined at t1, t2 and t4 on `haar_dynamics(seed)` whose events
    are the t1 label projectors of three channel partitions carried to their
    time (U P U^dagger, U the transport from t1).  Every chain ket is then
    U P_a P_b P_c k1, and distinct histories meet in disjoint channel sets,
    so the family decoheres although every step is dense."""
    dyn, s0 = haar_dynamics(seed)
    partitions = {1: (range(4), range(4, 8)), 2: ((0, 1, 4), (2, 3, 5, 6, 7)),
                  4: ((0, 2, 5), (1, 3, 4, 6, 7))}
    tree = Family(s0, (History(()),))
    for t, groups in partitions.items():
        u = np.eye(8)
        for step in dyn.steps[1:t]:
            u = step.matrix @ u
        parts = tuple(
            Projector(dyn.slices[t], u @ p.matrix @ u.conj().T)
            for p in label_parts(dyn.slices[1], *groups)
        )
        tree = refine(tree, t, parts)
    return dyn, tree


def one_time_merges(fam):
    """Each pair (i, j) of the family's histories that have the same event
    times and differ at exactly one of them, with the history whose event
    there is the sum of the pair's two events."""
    hs = fam.histories
    for i, a in enumerate(hs):
        for j in range(i + 1, len(hs)):
            b = hs[j]
            if a.times != b.times:
                continue
            diff = [
                k for k, ((_, p), (_, q)) in enumerate(zip(a.events, b.events))
                if not np.array_equal(p.matrix, q.matrix)
            ]
            if len(diff) == 1:
                (k,) = diff
                t, p = a.events[k]
                merged = Projector(p.slice, p.matrix + b.events[k][1].matrix)
                yield i, j, History(a.events[:k] + ((t, merged),) + a.events[k + 1:])


class TestCoarseGraining:
    """Merging two histories of a consistent family into their sum keeps
    the family consistent and adds their weights (ROADMAP item "An exact
    oracle in the tests"), within the rounding bound of
    `assert_gauge_invariant`."""

    def assert_additive(self, dyn, fam):
        bound = 20 * max(slc.dim for slc in dyn.slices) * len(dyn.slices) * np.finfo(float).eps
        weights = born_probabilities(dyn, fam)
        merges = 0
        for i, j, merged in one_time_merges(fam):
            hs = fam.histories
            coarse = Family(fam.initial, hs[:i] + (merged,) + hs[i + 1:j] + hs[j + 1:],
                            fam.complete)
            assert consistency_check(dyn, coarse).consistent
            got = born_probabilities(dyn, coarse)
            assert abs(got[merged] - weights[hs[i]] - weights[hs[j]]) <= bound
            assert all(got[h] == weights[h] for h in coarse.histories if h is not merged)
            merges += 1
        return merges

    @pytest.mark.parametrize("alpha2, n_merges", [(1 / 3, 70), (0.5, 69), (0.999, 69)])
    def test_consistent_named_families(self, alpha2, n_merges):
        merges = 0
        for fid in NamedFamilyId:
            dyn, fam = named_family(fid, BeamSplitterParams(alpha2))
            if consistency_check(dyn, fam).consistent:
                merges += self.assert_additive(dyn, fam)
        assert merges == n_merges

    def test_decohering_haar_tree(self):
        dyn, tree = decohering_haar_tree(5)
        assert len(tree.histories) == 8
        assert consistency_check(dyn, tree).consistent
        assert not all(p._on is not None for h in tree.histories for _, p in h.events)
        assert self.assert_additive(dyn, tree) == 12


class TestIntake:
    """Steps whose products would overflow float64, or that are not
    unitary, are refused at construction: by the amplitude bound, or as
    not unitary."""

    @pytest.mark.parametrize(
        "matrix, match",
        [
            (np.eye(2) * 1e160, re.escape("at most 1e+100 in modulus")),
            (np.eye(2) * 1e-160, re.escape("is not unitary (residual 1)")),
            (np.eye(2) * 1e300, re.escape("at most 1e+100 in modulus")),
            (np.diag([1e300, 1.0]), re.escape("at most 1e+100 in modulus")),
        ],
        ids=["scale-1e160", "scale-1e-160", "scale-1e300", "x-scale-1e300"],
    )
    def test_overflowing_steps_are_rejected(self, matrix, match):
        s = (TimeSlice(0, ("x", "y")), TimeSlice(1, ("x", "y")))
        with pytest.raises(ValueError, match=match):
            StepUnitary(s[0], s[1], matrix)


class TestAtTheBound:
    """The family shapes that used to overflow (rows ending before the
    latest time, a prefix shared by two of three histories, an event that
    masks a channel away), walked on unitary steps from a ket scaled by
    2**332, the largest power of two under the amplitude bound.  A power
    of two scales every product exactly, so each query's numbers are the
    unit ket's times 2**(332 p), bit for bit, where p is their degree in
    the amplitudes, and no RuntimeWarning is raised (pytest turns one into
    an error)."""

    SCALE = 2.0**332
    ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]])

    def model(self, *matrices):
        """x, y channels over t0..t(len(matrices)), one step per matrix."""
        s = tuple(TimeSlice(t, ("x", "y")) for t in range(len(matrices) + 1))
        return Dynamics(s, tuple(StepUnitary(a, b, u) for a, b, u in zip(s, s[1:], matrices)))

    def by_degree(self, x):
        """The numbers of a query's result (or of its InconsistentFamilyError),
        keyed by their degree in the initial ket's amplitudes."""
        if isinstance(x, Ket):
            return {1: x.amplitudes.tolist()}
        if isinstance(x, dict):
            return {2: list(x.values())}
        if isinstance(x, Defined):
            return {0: [x.probability]}
        if isinstance(x, float):
            return {0: [x]}
        if isinstance(x, (Incommensurate, InconsistentFamilyError)):
            x = x.report
        assert isinstance(x, ConsistencyReport) and np.isfinite(x.max_overlap)
        return {0: [x.consistent, *((i, j) for i, j, _ in x.offending_pairs)],
                2: [v for *_, v in x.offending_pairs]}

    def assert_scaled(self, query, dyn, amplitudes):
        """`query(dyn, ket)` at the bound is its unit-ket result, scaled."""
        def run(k):
            try:
                return self.by_degree(query(dyn, k))
            except InconsistentFamilyError as e:
                return self.by_degree(e)

        want = run(Ket(dyn.slices[0], amplitudes))
        got = run(Ket(dyn.slices[0], np.multiply(amplitudes, self.SCALE)))
        assert got.keys() == want.keys()
        for p, values in want.items():
            assert got[p] == [v * self.SCALE**p if p else v for v in values]
            assert p == 0 or np.isfinite(got[p]).all()

    def families(self, fam):
        """consistency_check and born_probabilities of `fam(dyn, k)`."""
        return (lambda dyn, k: consistency_check(dyn, fam(dyn, k)),
                lambda dyn, k: born_probabilities(dyn, fam(dyn, k)))

    @pytest.mark.parametrize("labels", ["xy", "x"])
    def test_families(self, labels):
        dyn = self.model(self.ROTATION, self.ROTATION)
        for query in self.families(lambda dyn, k: Family(
                k, tuple(History(((1, proj(dyn, 1, {lab})),)) for lab in labels))):
            self.assert_scaled(query, dyn, [1, 0])

    @pytest.mark.parametrize("final", ["x", "xy"])
    def test_infer(self, final):
        dyn = self.model(self.ROTATION, self.ROTATION)
        self.assert_scaled(
            lambda dyn, k: infer(dyn, k, proj(dyn, 2, set(final)), proj(dyn, 1, {"x"})),
            dyn, [1, 0])

    def test_weight_of_an_earlier_chain(self):
        # the x1 row ends before the latest time: D carries it to t2, its
        # weight is the norm of the un-carried row
        dyn = self.model(self.ROTATION, np.diag([1.0, -1.0]))
        self.assert_scaled(
            lambda dyn, k: born_probabilities(dyn, Family(k, (
                History(((1, proj(dyn, 1, {"x"})),)),
                History(((1, proj(dyn, 1, {"y"})), (2, proj(dyn, 2, {"y"}))))))),
            dyn, [1, 0])

    def deep_model(self):
        """x, y channels over t0..t3: two rotations, then the identity."""
        return self.model(self.ROTATION, self.ROTATION, np.eye(2))

    @pytest.mark.parametrize("query", ["consistency_check", "born_probabilities", "infer", "transport"])
    def test_shared_prefix_of_a_three_history_family(self, query):
        # x2 is the shared t2 prefix of two histories; y2 ends at t2 and is
        # carried to t3 for D
        dyn = self.deep_model()

        def fam(dyn, k):
            x2, y2 = proj(dyn, 2, {"x"}), proj(dyn, 2, {"y"})
            return Family(k, (History(((2, x2), (3, proj(dyn, 3, {"x"})))),
                              History(((2, x2), (3, proj(dyn, 3, {"y"})))),
                              History(((2, y2),))))

        consistency, born = self.families(fam)
        calls = {
            "consistency_check": consistency,
            "born_probabilities": born,
            "infer": lambda dyn, k: infer(dyn, k, proj(dyn, 3, {"x"}), proj(dyn, 2, {"x"})),
            "transport": lambda dyn, k: transport(dyn, k, 2),
        }
        self.assert_scaled(calls[query], dyn, [1, 0])

    def test_public_chain_ket(self):
        dyn = self.deep_model()
        h = History(((2, proj(dyn, 2, {"x"})), (3, proj(dyn, 3, {"x"}))))
        self.assert_scaled(lambda dyn, k: chain_ket(dyn, k, h), dyn, [1, 0])

    @pytest.mark.parametrize("query", [consistency_check, born_probabilities],
                             ids=lambda f: f.__name__)
    def test_slice_checks_run_before_any_product(self, query):
        # the second history's event is foreign: every event is checked
        # during the walk's index pass, before the first product
        dyn = self.deep_model()
        k = Ket(dyn.slices[0], [self.SCALE, 0])
        foreign = TimeSlice(3, ("u", "v"))
        fam = Family(k, (History(((2, proj(dyn, 2, {"x"})), (3, proj(dyn, 3, {"x"})))),
                         History(((3, projector_from_labels(foreign, {"u"})),))))
        with pytest.raises(ValueError, match=re.escape(f"event lives on {foreign}")):
            query(dyn, fam)

    @pytest.mark.parametrize("query", ["consistency_check", "born_probabilities",
                                       "conditional_probability"])
    def test_node_shared_by_two_of_three_histories(self, query):
        # x2 is the last prefix of two histories; the third ends at t2
        dyn = self.deep_model()

        def fam(dyn, k):
            x2 = proj(dyn, 2, {"x"})
            return Family(k, (History(((2, x2), (3, proj(dyn, 3, {"x"})))),
                              History(((2, x2), (3, proj(dyn, 3, {"y"})))),
                              History(((1, proj(dyn, 1, {"y"})), (2, proj(dyn, 2, {"y"}))))))

        def conditional(dyn, k):
            x2 = proj(dyn, 2, {"x"})
            return conditional_probability(dyn, fam(dyn, k), [(2, x2)], [(3, proj(dyn, 3, {"x"}))])

        consistency, born = self.families(fam)
        calls = {"consistency_check": consistency, "born_probabilities": born,
                 "conditional_probability": conditional}
        self.assert_scaled(calls[query], dyn, [1, 0])

    @pytest.mark.parametrize("query", [consistency_check, born_probabilities],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("where", ["last", "prefix"])
    def test_amplitude_masked_away_by_an_event(self, where, query):
        # y2 drops the x channel, as the last event or as a prefix
        dyn = self.deep_model()

        def fam(dyn, k):
            y2 = proj(dyn, 2, {"y"})
            events = ((2, y2),) if where == "last" else ((2, y2), (3, proj(dyn, 3, {"y"})))
            return Family(k, (History(events),))

        self.assert_scaled(lambda dyn, k: query(dyn, fam(dyn, k)), dyn, [1, 1])


class TestBornProbabilities:
    def test_full_family_weights(self):
        alpha2 = 1 / 3
        dyn, fam = named_family(NamedFamilyId.EQ8_FULL, BeamSplitterParams(alpha2))
        weights = born_probabilities(dyn, fam)
        beta2 = 1 - alpha2
        expected = [alpha2**2, 0.0, beta2 + alpha2 * beta2]
        for h, ref in zip(fam.histories, expected):
            assert weights[h] == pytest.approx(ref, abs=1e-12)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_refined_family_has_single_surviving_history(self):
        dyn, fam = named_family(NamedFamilyId.F_A_PRIME, BeamSplitterParams(0.3))
        weights = born_probabilities(dyn, fam)
        nonzero = {h: w for h, w in weights.items() if w > 1e-12}
        assert len(nonzero) == 1
        (survivor,) = nonzero
        assert survivor.label() == "A1,A2,A3,F4"
        assert nonzero[survivor] == pytest.approx(0.3**2, abs=1e-12)

    def test_special_ratio_weights(self):
        dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(1 / 3))
        weights = born_probabilities(dyn, fam)
        assert weights[fam.histories[0]] == pytest.approx(1 / 9, abs=1e-12)

    def test_inconsistent_family_is_rejected_with_report(self):
        dyn, fam = named_family(NamedFamilyId.F_B, BeamSplitterParams(0.5))
        with pytest.raises(InconsistentFamilyError) as exc:
            born_probabilities(dyn, fam)
        assert exc.value.report.max_overlap > 0.1


class TestConditionalProbability:
    def test_straight_arm_given_output(self):
        dyn, fam = named_family(NamedFamilyId.EQ8_FULL, BeamSplitterParams(0.37))
        pr = conditional_probability(
            dyn, fam, [(4, proj(dyn, 4, {"F"}))], [(2, proj(dyn, 2, {"A"}))]
        )
        assert pr == pytest.approx(1.0, abs=1e-12)

    def test_loop_pair_given_output_is_zero(self):
        dyn, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(0.37))
        pr = conditional_probability(
            dyn, fam, [(4, proj(dyn, 4, {"F"}))], [(2, proj(dyn, 2, {"B", "C"}))]
        )
        assert pr == pytest.approx(0.0, abs=1e-12)

    def test_lower_loop_arm_at_special_ratio(self):
        dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(1 / 3))
        pr = conditional_probability(
            dyn, fam, [(4, proj(dyn, 4, {"F"}))], [(2, proj(dyn, 2, {"C"}))]
        )
        assert pr == pytest.approx(1.0, abs=1e-12)

    def test_single_framework_rule_rejects_foreign_event(self):
        dyn, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(0.37))
        with pytest.raises(InexpressibleEventError):
            conditional_probability(
                dyn, fam, [(4, proj(dyn, 4, {"F"}))], [(2, proj(dyn, 2, {"B"}))]
            )

    def test_single_framework_rule_checks_the_condition_on_every_history(self):
        # B2 is orthogonal to the first two histories' shared A2 and meets
        # the third history's B2+C2 only in part
        dyn, s0 = model(0.37)
        histories = build_histories(
            dyn, [[(2, "A"), (4, "F")], [(2, "A"), (4, "GH")], [(2, "BC"), (4, "F")]]
        )
        fam = Family(s0, histories)
        with pytest.raises(InexpressibleEventError, match="B2 at time 2"):
            conditional_probability(
                dyn, fam, [(2, proj(dyn, 2, {"B"}))], [(4, proj(dyn, 4, {"F"}))]
            )

    def test_condition_and_query_at_one_time_keep_their_own_verdicts(self):
        # both compare with the same history events at t2: Pr(A2 | B2+C2) is
        # 0 only if the query does not reuse the condition's verdicts
        dyn, s0 = model(0.37)
        fam = Family(s0, build_histories(dyn, [[(2, "A")], [(2, "BC")]]))
        pr = conditional_probability(
            dyn, fam, [(2, proj(dyn, 2, {"B", "C"}))], [(2, proj(dyn, 2, {"A"}))]
        )
        assert pr == 0.0

    def test_time_without_an_event_stands_for_the_identity(self):
        # no history of {F4, G4+H4} has an event at t2: A2 is a proper part
        # of that implicit identity, so it is not expressible, while the
        # identity itself holds on every history
        dyn, s0 = model(1 / 3)
        fam = Family(s0, build_histories(dyn, [[(4, "F")], [(4, "GH")]]), complete=True)
        f4 = [(4, proj(dyn, 4, {"F"}))]
        with pytest.raises(InexpressibleEventError, match="time 2"):
            conditional_probability(dyn, fam, f4, [(2, proj(dyn, 2, {"A"}))])
        pr = conditional_probability(dyn, fam, f4, [(2, identity_projector(dyn.slices[2]))])
        assert pr == 1.0

    def test_zero_probability_condition_rejected(self):
        dyn, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(0.37))
        # conditioning on the empty loop-pair event has zero mass
        with pytest.raises(ValueError, match="vanishing probability"):
            conditional_probability(
                dyn, fam, [(2, proj(dyn, 2, {"B", "C"}))], [(4, proj(dyn, 4, {"F"}))]
            )

    @pytest.mark.parametrize(
        "basis", [("X", "Y", "Z"), None, ("X",), ("X", "Y", "Z", "W")]
    )
    def test_query_event_must_live_on_the_slice_of_its_time(self, basis):
        # a foreign slice of the same dimension, or a t3 label projector
        # given at time 2 (basis None), must not be compared by channel
        # position; one of another dimension must not reach the matrices
        dyn, fam = named_family(NamedFamilyId.EQ8_FULL, BeamSplitterParams(1 / 3))
        slc = dyn.slices[3] if basis is None else TimeSlice(2, basis)
        query = projector_from_labels(slc, {slc.basis[0]})
        want = f"event lives on {slc}, not {dyn.slices[2]}"
        with pytest.raises(ValueError, match=re.escape(want)):
            conditional_probability(dyn, fam, [(4, proj(dyn, 4, {"F"}))], [(2, query)])

    def test_condition_event_must_live_on_the_slice_of_its_time(self):
        dyn, fam = named_family(NamedFamilyId.EQ8_FULL, BeamSplitterParams(1 / 3))
        f4 = projector_from_labels(TimeSlice(4, ("X", "Y", "Z")), {"X"})
        want = f"event lives on {f4.slice}, not {dyn.slices[4]}"
        with pytest.raises(ValueError, match=re.escape(want)):
            conditional_probability(dyn, fam, [(4, f4)], [(2, proj(dyn, 2, {"A"}))])


class TestRefine:
    def test_refining_both_identity_times_gives_18_histories(self):
        dyn, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(0.3))
        fam = refine(fam, 1, [proj(dyn, 1, {lab}) for lab in ("A", "D", "Q")])
        fam = refine(fam, 3, [proj(dyn, 3, {lab}) for lab in ("A", "E", "H")])
        assert len(fam.histories) == 18

    def test_splitting_loop_pair_yields_inconsistent_family(self):
        dyn, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(0.3))
        fam = refine(fam, 2, [proj(dyn, 2, {"B"}), proj(dyn, 2, {"C"})])
        assert len(fam.histories) == 3
        assert not consistency_check(dyn, fam).consistent

    def test_refining_consistent_special_family_breaks_it(self):
        dyn, fam = named_family(NamedFamilyId.F_C, BeamSplitterParams(1 / 3))
        assert consistency_check(dyn, fam).consistent
        e3 = proj(dyn, 3, {"E"})
        fam = refine(fam, 3, [e3, e3.complement()])
        assert not consistency_check(dyn, fam).consistent

    def test_splits_distinct_events_with_equal_matrices(self):
        dyn, s0 = model(0.3)
        fam = Family(s0, build_histories(dyn, [[(2, "A")], [(2, "BC")], [(2, "CB")]]))
        b2, c2 = proj(dyn, 2, {"B"}), proj(dyn, 2, {"C"})
        fam = refine(fam, 2, [b2, c2])
        assert [h.events[0][1] for h in fam.histories[1:]] == [b2, c2, b2, c2]

    def test_parts_must_sum_to_a_replaced_event(self):
        dyn, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(0.3))
        with pytest.raises(ValueError, match="sum of the replacement parts"):
            refine(fam, 2, [proj(dyn, 2, {"B"})])

    @pytest.mark.parametrize("groups", [[{"X"}], [{"X"}, {"Y", "Z"}]])
    def test_history_events_must_live_on_the_parts_slice(self, groups):
        # X on t2{X,Y,Z} has the support of the family's A2, and X + Y + Z
        # that of the identity, but neither is an event of this dynamics
        dyn, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(0.3))
        foreign = TimeSlice(2, ("X", "Y", "Z"))
        parts = [projector_from_labels(foreign, g) for g in groups]
        want = f"history event lives on {dyn.slices[2]}, not {foreign}"
        with pytest.raises(ValueError, match=re.escape(want)):
            refine(fam, 2, parts)

    def test_overlapping_parts_rejected(self):
        dyn, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(0.3))
        with pytest.raises(ValueError, match="overlap"):
            refine(
                fam, 2, [proj(dyn, 2, {"A", "B"}), proj(dyn, 2, {"B", "C"})]
            )


class TestInfer:
    def test_straight_arm_is_certain(self):
        dyn, s0 = model(0.42)
        verdict = infer(dyn, s0, proj(dyn, 4, {"F"}), proj(dyn, 2, {"A"}))
        assert isinstance(verdict, Defined)
        assert verdict.probability == pytest.approx(1.0, abs=1e-12)

    def test_lower_loop_arm_is_incommensurate_off_special_ratio(self):
        dyn, s0 = model(0.25)
        verdict = infer(dyn, s0, proj(dyn, 4, {"F"}), proj(dyn, 2, {"C"}))
        assert isinstance(verdict, Incommensurate)
        assert verdict.report.max_overlap == pytest.approx(3 / 64, abs=1e-12)

    def test_inner_output_arm_is_certainly_empty(self):
        dyn, s0 = model(0.42)
        verdict = infer(dyn, s0, proj(dyn, 4, {"F"}), proj(dyn, 3, {"E"}))
        assert isinstance(verdict, Defined)
        assert verdict.probability == pytest.approx(0.0, abs=1e-12)

    def test_query_and_complement_probabilities_sum_to_one(self):
        dyn, s0 = model(0.42)
        f4 = proj(dyn, 4, {"F"})
        for labels in ({"A"}, {"D"}, {"Q"}):
            p = proj(dyn, 1, labels)
            v1 = infer(dyn, s0, f4, p)
            v2 = infer(dyn, s0, f4, p.complement())
            assert isinstance(v1, Defined) and isinstance(v2, Defined)
            assert v1.probability + v2.probability == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_final_event_rejected(self):
        dyn, _ = model(0.42)
        q0 = basis_ket(dyn.slices[0], "Q")
        with pytest.raises(ValueError, match="vanishing forward probability"):
            infer(dyn, q0, proj(dyn, 4, {"H"}), proj(dyn, 2, {"A"}))

    def test_final_event_must_live_on_the_final_slice(self):
        dyn, s0 = model(0.42)
        f4 = projector_from_labels(TimeSlice(4, ("X", "Y", "Z")), {"X"})
        want = f"final event lives on {f4.slice}, not {dyn.slices[4]}"
        with pytest.raises(ValueError, match=re.escape(want)):
            infer(dyn, s0, f4, proj(dyn, 2, {"A"}))

    def test_framework_independence_of_shared_conditionals(self):
        # the same zero answer for the inner output arm from the coarsest
        # family and from a refinement of the straight-arm family
        dyn, s0 = model(0.37)
        f4 = proj(dyn, 4, {"F"})
        e3 = proj(dyn, 3, {"E"})
        coarse = infer(dyn, s0, f4, e3)
        _, fam = named_family(NamedFamilyId.F_A, BeamSplitterParams(0.37))
        fam = refine(fam, 3, [e3, e3.complement()])
        assert consistency_check(dyn, fam).consistent
        pr = conditional_probability(dyn, fam, [(4, f4)], [(3, e3)])
        assert pr == pytest.approx(coarse.probability, abs=1e-12)


class TestFamilyValidation:
    def test_complete_family_must_cover_identity(self):
        dyn, s0 = model(0.3)
        histories = (
            History(((2, proj(dyn, 2, {"A"})), (4, proj(dyn, 4, {"F"}))),),
        )
        with pytest.raises(ValueError, match="cover the identity"):
            Family(s0, histories, complete=True)

    def test_subfamily_skips_coverage_check(self):
        dyn, s0 = model(0.3)
        histories = (
            History(((2, proj(dyn, 2, {"A"})), (4, proj(dyn, 4, {"F"}))),),
        )
        Family(s0, histories, complete=False)

    def test_one_event_free_history_is_a_complete_family(self):
        dyn, s0 = model(0.3)
        fam = Family(s0, (History(()),), complete=True)
        assert born_probabilities(dyn, fam)[fam.histories[0]] == pytest.approx(1.0)

    def test_two_event_free_histories_do_not_cover_the_identity(self):
        _, s0 = model(0.3)
        histories = (History(()), History(()))
        assert dense_coverage_residual(histories) > 1e-10
        with pytest.raises(ValueError, match=r"cover the identity \(histories 0 and 1 overlap\)"):
            Family(s0, histories, complete=True)

    @pytest.mark.parametrize("alpha2", [1 / 3, 0.5, 0.999])
    @pytest.mark.parametrize("fid", list(NamedFamilyId))
    def test_named_family_coverage_verdict_matches_the_dense_oracle(self, fid, alpha2):
        _, fam = named_family(fid, BeamSplitterParams(alpha2))
        dense = dense_coverage_residual(fam.histories) <= 1e-10
        assert is_complete_family(fam.initial, fam.histories) is dense is fam.complete

    @pytest.mark.parametrize("covers", [True, False])
    def test_rank_one_events_take_the_dense_coverage_path(self, covers):
        # a Fourier rank-one PDI at t2 and at t3: no event records a
        # support, so orthogonality is the dense product and a rank the
        # rounded trace; every diagonal entry is 1/3, so only the products
        # tell the complete family from one that repeats f1 for f0
        dyn, s0 = model(0.3)
        omega = np.exp(2j * np.pi / 3)
        pdis = [
            [
                projector_from_ket(Ket(dyn.slices[t], [1, omega**k, omega ** (2 * k)]))
                for k in range(3)
            ]
            for t in (2, 3)
        ]
        pairs = [(a, b) for a in range(3) for b in range(3)]
        if not covers:
            pairs[0] = (1, 0)
        histories = tuple(History(((2, pdis[0][a]), (3, pdis[1][b]))) for a, b in pairs)
        residual = dense_coverage_residual(histories)
        if covers:
            assert residual <= 1e-10
            Family(s0, histories, complete=True)
            return
        assert residual > 0.1
        with pytest.raises(ValueError, match=r"cover the identity \(histories 0 and 3 overlap\)"):
            Family(s0, histories, complete=True)

    @pytest.mark.parametrize("drop", [None, 3])
    def test_diagonal_coverage_equals_the_dense_value(self, drop):
        # d = 8 over three times, two parts per time; each part has one
        # diagonal entry 1 - 3e-13 or 1 - 7e-13 (still valid projectors,
        # with no recorded support), so the dense residual is small but not 0
        rng = np.random.default_rng(8)
        levels = []
        for t in (1, 2, 3):
            slc = TimeSlice(t, tuple(f"c{i}" for i in range(8)))
            mask = np.zeros(8)
            mask[rng.permutation(8)[:4]] = 1.0
            parts = []
            for m, eps in ((mask, 3e-13), (1.0 - mask, 7e-13)):
                diag = m.astype(complex)
                diag[int(np.argmax(m))] -= eps
                parts.append(Projector(slc, np.diag(diag)))
            levels.append((t, parts))
        histories = tuple(
            History(tuple((t, parts[k >> i & 1]) for i, (t, parts) in enumerate(levels)))
            for k in range(8)
        )
        if drop is not None:
            histories = histories[:drop] + histories[drop + 1:]
        initial = basis_ket(TimeSlice(0, ("c0",)), "c0")
        residual = dense_coverage_residual(histories)
        if drop is None:
            assert 0.0 < residual <= 1e-10
            Family(initial, histories, complete=True)
            return
        assert residual > 1e-10
        with pytest.raises(ValueError, match=r"\(ranks sum to 448, not 512\)"):
            Family(initial, histories, complete=True)

    @pytest.mark.parametrize("seed", [5, 11])
    def test_haar_rotated_label_family_has_the_label_verdicts(self, seed):
        # a complete d = 8 label family over three times, each slice rotated
        # by its own Haar unitary V_t: P -> V P V^dagger keeps every
        # orthogonality and rank, but no event records a support, and the
        # parts' traces miss their ranks 3 and 5 by rounding
        rng = np.random.default_rng(seed)
        levels = []
        for t in (1, 2, 3):
            slc = TimeSlice(t, tuple(f"c{i}" for i in range(8)))
            v = haar_unitary(rng, 8)
            perm = rng.permutation(8)
            parts = []
            for axes in (perm[:3], perm[3:]):
                diag = np.zeros(8)
                diag[axes] = 1.0
                parts.append(Projector(slc, v @ np.diag(diag) @ v.conj().T))
            assert all(p._on is None for p in parts)
            levels.append((t, parts))
        histories = tuple(
            History(tuple((t, parts[k >> i & 1]) for i, (t, parts) in enumerate(levels)))
            for k in range(8)
        )
        initial = basis_ket(TimeSlice(0, ("c0",)), "c0")
        assert dense_coverage_residual(histories) <= 1e-10
        Family(initial, histories, complete=True)
        # history 0 has rank 3^3 = 27
        assert dense_coverage_residual(histories[1:]) > 1e-10
        with pytest.raises(ValueError, match=r"\(ranks sum to 485, not 512\)"):
            Family(initial, histories[1:], complete=True)
        # histories 2 (ranks 3, 5, 3) and 4 (3, 3, 5) have equal ranks, so
        # repeating 2 in place of 4 keeps the rank sum at 512
        repeated = histories[:4] + (histories[2],) + histories[5:]
        assert dense_coverage_residual(repeated) > 1e-10
        with pytest.raises(ValueError, match=r"\(histories 2 and 4 overlap\)"):
            Family(initial, repeated, complete=True)

    @pytest.mark.parametrize("dim, times", [(64, 4), (8, 8), (128, 2)])
    def test_large_history_spaces_need_no_size_cap(self, dim, times):
        # d = 64 over four times: 16 histories of 32-channel halves, each of
        # rank 32^4, in 64^4 = 16 777 216 dimensions; d = 8 over eight
        # times: one history of identity events, 8^8 dimensions; d = 128
        # over two times: a ray and its complement at t1, the identity at t2
        slices = [TimeSlice(t, tuple(f"c{i}" for i in range(dim))) for t in range(times + 1)]
        initial = basis_ket(slices[0], "c0")
        events = [(t, identity_projector(slices[t])) for t in range(1, times + 1)]
        if dim == 64:
            halves = [label_parts(slc, range(32), range(32, 64)) for slc in slices[1:]]
            histories = tuple(
                History(tuple((t + 1, halves[t][k >> t & 1]) for t in range(4)))
                for k in range(16)
            )
            with pytest.raises(ValueError, match=r"\(ranks sum to 15728640, not 16777216\)"):
                Family(initial, histories[1:], complete=True)
        elif dim == 128:
            v = np.zeros(dim, dtype=complex)
            v[:2] = 1.0
            ray = projector_from_ket(Ket(slices[1], v))
            histories = (History(((1, ray),) + tuple(events[1:])),
                         History(((1, ray.complement()),) + tuple(events[1:])))
        else:
            histories = (History(tuple(events)),)
        Family(initial, histories, complete=True)

    def test_events_must_start_after_initial_time(self):
        dyn, s0 = model(0.3)
        h = History(((0, proj(dyn, 0, {"S"})),))
        with pytest.raises(ValueError, match="after the initial time"):
            Family(s0, (h,))

    def test_extended_born_rule_normalization_on_complete_families(self):
        for alpha2 in GRID:
            dyn, fam = named_family(
                NamedFamilyId.EQ12_DETECTORS, BeamSplitterParams(alpha2)
            )
            weights = born_probabilities(dyn, fam)
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_no_library_path_builds_a_label_matrix(monkeypatch):
    # A label projector holds only its mask, and its `matrix` is built on
    # each read; every path below reads the masks instead.
    builds = []
    build = statespace._label_matrix
    monkeypatch.setattr(statespace, "_label_matrix", lambda on: builds.append(on) or build(on))
    for argv in cases():
        run(argv)
    assert len(builds) == 0

    dyn, s0 = haar_dynamics(11, dim=64)
    s = dyn.slices
    fam = Family(s0, (History(()),))
    for t, groups in ((1, (range(20), range(20, 64))),
                      (2, (range(0, 64, 2), range(1, 64, 2))),
                      (3, (range(8), range(8, 40), range(40, 64)))):
        fam = refine(fam, t, label_parts(s[t], *groups))
    _decoherence(dyn, Family(fam.initial, fam.histories, complete=True))
    detectors = PDI(s[4], label_parts(s[4], range(10), range(10, 64)))
    channels = label_parts(s[2], range(32), range(32, 64))
    infer(dyn, s0, detectors.parts[0], channels[0])
    presence_table(dyn, s0, basis_ket(s[4], "c0"), channels)
    probes = (ProbeSpec("p", frozenset({(1, "c3")})),
              ProbeSpec("w", frozenset({(2, "c5"), (2, "c7")})))
    js = evolve_with_probes(dyn, probes, ProbeStrength(0.1), s0)
    coincidence_support(outcome_distribution(js, detectors))
    assert len(builds) == 0
