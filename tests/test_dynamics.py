import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhistories.dynamics import Dynamics, StepUnitary, step_validate, transport
from qhistories.histories import Family, History, chain_ket, consistency_check
from qhistories.mzi import BeamSplitterParams, build_nested_mzi, build_no_bs34, time_slices
from qhistories.statespace import Ket, TimeSlice, basis_ket, projector_from_labels
from test_golden import ALPHA2 as GOLDEN_ALPHA2
from test_histories import haar_dynamics

ALPHA2 = 1 / 3


def literal_step_matrices(alpha2):
    """The four step matrices written out by hand, as a transport oracle."""
    a, b, r = np.sqrt(alpha2), np.sqrt(1 - alpha2), np.sqrt(0.5)
    t10 = np.array([[a, -b, 0], [b, a, 0], [0, 0, 1]], dtype=complex)
    t21 = np.array([[1, 0, 0], [0, r, r], [0, r, -r]], dtype=complex)
    t32 = np.array([[1, 0, 0], [0, -r, r], [0, r, r]], dtype=complex)
    t43 = np.array([[a, b, 0], [b, -a, 0], [0, 0, 1]], dtype=complex)
    return t10, t21, t32, t43


@pytest.fixture
def dyn():
    return build_nested_mzi(BeamSplitterParams(ALPHA2))


def test_forward_transport_matches_output_state(dyn):
    a, b = np.sqrt(ALPHA2), np.sqrt(1 - ALPHA2)
    out = transport(dyn, basis_ket(dyn.slices[0], "S"), 4)
    np.testing.assert_allclose(
        out.amplitudes, [a * a, a * b, b], atol=1e-14
    )


def test_backward_transport_of_f_to_middle_slice(dyn):
    a, b, r = np.sqrt(ALPHA2), np.sqrt(1 - ALPHA2), np.sqrt(0.5)
    out = transport(dyn, basis_ket(dyn.slices[4], "F"), 2)
    np.testing.assert_allclose(
        out.amplitudes, [a, -r * b, r * b], atol=1e-14
    )


def test_transport_agrees_with_literal_matrix_oracle(dyn):
    t10, t21, t32, t43 = literal_step_matrices(ALPHA2)
    full = t43 @ t32 @ t21 @ t10
    for label, col in (("S", 0), ("R", 1), ("Q", 2)):
        got = transport(dyn, basis_ket(dyn.slices[0], label), 4)
        np.testing.assert_allclose(got.amplitudes, full[:, col], atol=1e-12)


def test_q_input_reaches_output_with_flipped_sign(dyn):
    a, b = np.sqrt(ALPHA2), np.sqrt(1 - ALPHA2)
    out = transport(dyn, basis_ket(dyn.slices[0], "Q"), 4)
    np.testing.assert_allclose(out.amplitudes, [-b, a, 0], atol=1e-14)


def test_step_validate_passes_for_model(dyn):
    report = step_validate(dyn)
    assert report.ok
    assert report.max_residual <= 1e-12
    assert len(report.residuals) == 4


def test_step_validate_flags_non_unitary_step(dyn):
    slices = time_slices()
    bad = StepUnitary(slices[0], slices[1], np.diag([1.0, 1.0, 0.5]))
    broken = Dynamics(slices, (bad,) + dyn.steps[1:])
    report = step_validate(broken)
    assert not report.ok
    assert report.worst_step == 0
    assert report.max_residual == pytest.approx(0.75)


def unitarity_residual(step):
    """One step's max |U^dagger U - I|, the per-step reference for the
    stacked `step_validate`."""
    u = step.matrix
    return float(np.max(np.abs(u.conj().T @ u - np.eye(step.from_slice.dim))))


def _residual_bits(residuals):
    return [r.hex() for r in residuals]


@pytest.mark.parametrize("alpha2", [float(a2) for a2 in GOLDEN_ALPHA2])
@pytest.mark.parametrize("build", [build_nested_mzi, build_no_bs34])
def test_stacked_residuals_are_each_steps_own_on_the_models(build, alpha2):
    dyn = build(BeamSplitterParams(alpha2))
    report = step_validate(dyn)
    assert _residual_bits(report.residuals) == _residual_bits(
        unitarity_residual(st) for st in dyn.steps
    )


@pytest.mark.parametrize("dim", [2, 8, 64])
@pytest.mark.parametrize("seed", [3, 11])
def test_stacked_residuals_are_each_steps_own_on_haar_dynamics(dim, seed):
    dyn, _ = haar_dynamics(seed, dim=dim)
    report = step_validate(dyn)
    assert report.ok
    assert _residual_bits(report.residuals) == _residual_bits(
        unitarity_residual(st) for st in dyn.steps
    )


@pytest.mark.parametrize("position", [0, 1, 2, 3])
def test_stacked_check_reports_a_broken_step_at_its_own_position(dyn, position):
    slices = time_slices()
    frm, to = slices[position], slices[position + 1]
    steps = list(dyn.steps)
    steps[position] = StepUnitary(frm, to, dyn.steps[position].matrix * 1.5)
    report = step_validate(Dynamics(slices, tuple(steps)))
    assert not report.ok
    assert report.worst_step == position
    assert report.max_residual == report.residuals[position] == pytest.approx(1.25)
    assert _residual_bits(report.residuals) == _residual_bits(
        unitarity_residual(st) for st in steps
    )


@pytest.mark.parametrize("matrix, ok", [(np.diag([1.0, 1.0, 0.5]), False), (np.eye(3), True)])
def test_stacked_check_of_a_one_step_dynamics(matrix, ok):
    slices = time_slices()[:2]
    step = StepUnitary(slices[0], slices[1], matrix)
    report = step_validate(Dynamics(slices, (step,)))
    assert report.ok is ok
    assert report.worst_step == 0
    assert report.residuals == (unitarity_residual(step),)
    assert report.max_residual == report.residuals[0]


def test_model_steps_are_read_only_and_equal_checked_ones(dyn):
    for st in dyn.steps:
        assert st.matrix.flags.writeable is False
        checked = StepUnitary(st.from_slice, st.to_slice, st.matrix)
        assert checked.matrix.tobytes() == st.matrix.tobytes()
        assert checked.matrix.dtype == st.matrix.dtype


def test_transport_rejects_out_of_range_index(dyn):
    with pytest.raises(ValueError, match="outside range"):
        transport(dyn, basis_ket(dyn.slices[0], "S"), 5)


def test_transport_rejects_foreign_ket(dyn):
    foreign = Ket(time_slices()[0], [1, 0, 0])
    # same value-slice is fine; a ket on a different basis is not
    from qhistories.statespace import TimeSlice

    other = Ket(TimeSlice(0, ("X", "Y", "Z")), [1, 0, 0])
    transport(dyn, foreign, 2)
    with pytest.raises(ValueError):
        transport(dyn, other, 2)


def test_dynamics_validates_chaining(dyn):
    with pytest.raises(ValueError, match="does not join"):
        Dynamics(dyn.slices, dyn.steps[::-1])


def test_round_trip_and_norm_for_random_kets(dyn):
    rng = np.random.default_rng(11)
    for _ in range(100):
        j, k = rng.integers(0, 5, size=2)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        ket = Ket(dyn.slices[j], amps)
        there = transport(dyn, ket, int(k))
        back = transport(dyn, there, int(j))
        assert abs(there.norm() - ket.norm()) <= 1e-10
        assert np.max(np.abs(back.amplitudes - ket.amplitudes)) <= 1e-10


@given(
    alpha2=st.floats(0.01, 0.99, allow_nan=False),
    start=st.integers(0, 4),
    mid=st.integers(0, 4),
    end=st.integers(0, 4),
)
def test_composition_associativity(alpha2, start, mid, end):
    dyn = build_nested_mzi(BeamSplitterParams(alpha2))
    ket = basis_ket(dyn.slices[start], dyn.slices[start].basis[0])
    via = transport(dyn, transport(dyn, ket, mid), end)
    direct = transport(dyn, ket, end)
    assert np.max(np.abs(via.amplitudes - direct.amplitudes)) <= 1e-10


@pytest.mark.parametrize(
    "matrix, match",
    [
        (np.full((3, 3), np.nan), "amplitudes must be finite"),
        (np.diag([1.0, np.inf, 1.0]), "amplitudes must be finite"),
        (np.eye(2), "has shape"),
        (np.ones((3, 3, 1)), "has shape"),
    ],
)
def test_step_unitary_rejects_invalid_matrices(matrix, match):
    slices = time_slices()
    with pytest.raises(ValueError, match=match):
        StepUnitary(slices[0], slices[1], matrix)


def test_step_unitary_joins_slices_of_one_dimension():
    # a (3, 2) isometry would pass `step_validate`, but its adjoint would
    # not carry kets back without loss
    frm, to = TimeSlice(0, ("a", "b")), TimeSlice(1, ("a", "b", "c"))
    with pytest.raises(ValueError, match="different dimension"):
        StepUnitary(frm, to, np.eye(3, 2))


def overflowing_dynamics():
    """Two non-unitary steps with 1e200 entries: each product is finite
    after one step and overflows to inf after the second."""
    slices = tuple(TimeSlice(t, ("x", "y")) for t in range(3))
    big = np.full((2, 2), 1e200)
    steps = tuple(StepUnitary(a, b, big) for a, b in zip(slices, slices[1:]))
    return Dynamics(slices, steps)


def test_overflowing_transport_raises():
    dyn = overflowing_dynamics()
    k = Ket(dyn.slices[0], [1.0, 1.0])
    assert np.all(np.isfinite(transport(dyn, k, 1).amplitudes))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            transport(dyn, k, 2)


def test_overflowing_chain_ket_raises():
    dyn = overflowing_dynamics()
    k = Ket(dyn.slices[0], [1.0, 1.0])
    xy1 = projector_from_labels(dyn.slices[1], {"x", "y"})
    x2, y2 = (projector_from_labels(dyn.slices[2], {lab}) for lab in "xy")
    # both histories project from the one carry of the shared t1 node to t2
    shared = Family(k, (History(((1, xy1), (2, x2))), History(((1, xy1), (2, y2)))))
    for compute in (
        lambda: chain_ket(dyn, k, History(((2, x2),))),
        lambda: chain_ket(dyn, k, History(((1, xy1), (2, y2)))),
        lambda: consistency_check(dyn, shared),
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="amplitudes must be finite"):
                compute()


def test_transport_and_chain_kets_are_read_only(dyn):
    s0 = basis_ket(dyn.slices[0], "S")
    h = History(((2, projector_from_labels(dyn.slices[2], {"A"})),
                 (4, projector_from_labels(dyn.slices[4], {"F"}))))
    for k in (transport(dyn, s0, 3), transport(dyn, s0, 0), chain_ket(dyn, s0, h)):
        assert k.amplitudes.flags.writeable is False
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.5
