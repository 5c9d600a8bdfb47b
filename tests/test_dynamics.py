import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhistories.dynamics import Dynamics, StepUnitary, _require_unitary, transport
from qhistories.histories import History, chain_ket
from qhistories.mzi import BeamSplitterParams, build_nested_mzi, build_no_bs34, time_slices
from qhistories.statespace import DEFAULT_TOL, Ket, TimeSlice, basis_ket, projector_from_labels
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


def unitarity_residual(step):
    """One step's max |U^dagger U - I|, computed alone: the per-step
    reference for the stacked check `_require_unitary`."""
    u = step.matrix
    return float(np.max(np.abs(u.conj().T @ u - np.eye(step.from_slice.dim))))


def test_model_steps_are_unitary(dyn):
    assert len(dyn.steps) == 4
    assert max(unitarity_residual(st) for st in dyn.steps) <= 1e-12


@pytest.mark.parametrize("alpha2", [float(a2) for a2 in GOLDEN_ALPHA2])
@pytest.mark.parametrize("build", [build_nested_mzi, build_no_bs34])
def test_each_model_step_passes_the_check_of_a_lone_step(build, alpha2):
    # the build checks its four steps stacked; each one alone is accepted too
    for st in build(BeamSplitterParams(alpha2)).steps:
        StepUnitary(st.from_slice, st.to_slice, st.matrix)


@pytest.mark.parametrize("dim", [2, 8, 64])
@pytest.mark.parametrize("seed", [3, 11])
def test_stacked_check_accepts_haar_steps_checked_one_by_one(dim, seed):
    dyn, _ = haar_dynamics(seed, dim=dim)
    _require_unitary(np.stack([st.matrix for st in dyn.steps]), dyn.slices)


@pytest.mark.parametrize("position", [0, 1, 2, 3])
def test_stacked_check_names_a_broken_step_at_its_own_position(dyn, position):
    slices = time_slices()
    frm, to = slices[position], slices[position + 1]
    u = np.stack([st.matrix for st in dyn.steps])
    u[position] *= 1.5
    message = f"step from {frm} to {to} is not unitary (residual 1.25)"
    with pytest.raises(ValueError, match=re.escape(message)):
        _require_unitary(u, slices)
    with pytest.raises(ValueError, match=re.escape(message)):
        StepUnitary(frm, to, u[position])


@pytest.mark.parametrize(
    "e, accepted",
    [(np.nextafter(DEFAULT_TOL, 0.0), True), (DEFAULT_TOL, True),
     (np.nextafter(DEFAULT_TOL, 1.0), False)],
    ids=["just-under", "at", "just-over"],
)
def test_unitarity_cut_is_default_tol(e, accepted):
    # U^dagger U - I of [[1, e], [0, 1]] holds e at (0, 1), exactly, and
    # e**2 at (1, 1), which rounds away against 1: the residual is e
    frm, to = TimeSlice(0, ("x", "y")), TimeSlice(1, ("x", "y"))
    u = np.array([[1.0, e], [0.0, 1.0]])
    if accepted:
        StepUnitary(frm, to, u)
    else:
        with pytest.raises(ValueError, match=re.escape(f"(residual {e:.3g})")):
            StepUnitary(frm, to, u)


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
    # a (3, 2) isometry has U^dagger U = I, but its adjoint would not
    # carry kets back without loss
    frm, to = TimeSlice(0, ("a", "b")), TimeSlice(1, ("a", "b", "c"))
    with pytest.raises(ValueError, match="different dimension"):
        StepUnitary(frm, to, np.eye(3, 2))


_BOUND = re.escape("amplitudes must be finite and at most 1e+100 in modulus (step matrix)")


@pytest.mark.parametrize(
    "matrix, match",
    [
        (np.diag([1.0, 1.0, 0.5]), re.escape("is not unitary (residual 0.75)")),
        (np.full((2, 2), 1e200), _BOUND),
    ],
    ids=["diag-half", "full-1e200"],
)
def test_non_unitary_steps_are_rejected_at_intake(matrix, match):
    # a non-unitary step, and a step whose products overflow float64
    frm, to = (TimeSlice(t, tuple("xyz"[: len(matrix)])) for t in (0, 1))
    with pytest.raises(ValueError, match=match):
        StepUnitary(frm, to, matrix)


def test_transport_and_chain_kets_are_read_only(dyn):
    s0 = basis_ket(dyn.slices[0], "S")
    h = History(((2, projector_from_labels(dyn.slices[2], {"A"})),
                 (4, projector_from_labels(dyn.slices[4], {"F"}))))
    for k in (transport(dyn, s0, 3), transport(dyn, s0, 0), chain_ket(dyn, s0, h)):
        assert k.amplitudes.flags.writeable is False
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.5
