import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhistories.dynamics import Dynamics, StepUnitary, step_validate, transport
from qhistories.histories import Family, History, chain_ket, consistency_check
from qhistories.mzi import BeamSplitterParams, build_nested_mzi, time_slices
from qhistories.statespace import Ket, TimeSlice, basis_ket, projector_from_labels

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
        (np.eye(2), "does not map"),
        (np.ones((3, 3, 1)), "square matrix"),
    ],
)
def test_step_unitary_rejects_invalid_matrices(matrix, match):
    slices = time_slices()
    with pytest.raises(ValueError, match=match):
        StepUnitary(slices[0], slices[1], matrix)


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
