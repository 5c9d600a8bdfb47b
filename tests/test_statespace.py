import ast
import copy
import dataclasses
import inspect
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_histories import haar_dynamics, haar_unitary

import qhistories
from qhistories.dynamics import StepUnitary, transport
from qhistories.histories import Family, History, born_probabilities, chain_ket, consistency_check
from qhistories.mzi import BeamSplitterParams, build_nested_mzi, source_ket
from qhistories.probes import (
    ProbeSpec,
    ProbeStrength,
    branch_components,
    evolve_with_probes,
    outcome_distribution,
    standard_probes,
)
from qhistories.statespace import (
    _AMPLITUDE_BOUND,
    _CUTS,
    DEFAULT_TOL,
    PDI,
    Ket,
    Projector,
    TimeSlice,
    _apply,
    _norms2,
    _negligible,
    basis_ket,
    identity_projector,
    inner,
    pdi_validate,
    projector_from_ket,
    projector_from_labels,
    slice_pdi,
)

T2 = TimeSlice(2, ("A", "B", "C"))
XY = TimeSlice(0, ("x", "y"))


def test_slice_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="distinct"):
        TimeSlice(0, ("A", "A", "B"))


@pytest.mark.parametrize(
    "time_index, basis, message",
    [
        (0, (), "slice basis must be non-empty"),
        (0, "AB", "slice basis 'AB' is not a sequence of channel labels"),
        (0, 5, "slice basis 5 is not a sequence of channel labels"),
        (0, ("A", ""), "channel label '' is not a non-empty string"),
        (0, (1, 2), "channel label 1 is not a non-empty string"),
        ("1", ("A",), "time index '1' is not an integer"),
        (1.5, ("A",), "time index 1.5 is not an integer"),
        (-1, ("A",), "time_index must be >= 0, got -1"),
    ],
    ids=["empty-basis", "str-basis", "int-basis", "empty-label", "int-labels", "str-index",
         "float-index", "negative"],
)
def test_slice_rejects_malformed_input(time_index, basis, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TimeSlice(time_index, basis)
    # an index `operator.index` accepts is held as the int it gives
    assert type(TimeSlice(np.int64(2), ("A",)).time_index) is int


def test_slice_axis_reads_every_position_and_rejects_foreign_labels():
    slc = TimeSlice(1, tuple(f"c{i}" for i in range(64)))
    assert [slc.axis(lab) for lab in slc.basis] == list(range(64))
    message = "unknown channel 'Z' on slice t2 with basis ('A', 'B', 'C')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        T2.axis("Z")
    with pytest.raises(ValueError, match="unknown channel"):
        T2.axis(["A"])


@pytest.mark.parametrize(
    "copier",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_slice_positions_are_not_a_field(copier):
    assert [f.name for f in dataclasses.fields(TimeSlice)] == ["time_index", "basis"]
    assert repr(T2) == "TimeSlice(time_index=2, basis=('A', 'B', 'C'))"
    dup = copier(T2)
    assert dup == T2 and hash(dup) == hash(T2)
    assert dup == TimeSlice(2, ["A", "B", "C"])
    assert [dup.axis(lab) for lab in "CBA"] == [2, 1, 0]


def test_ket_checks_amplitude_count():
    with pytest.raises(ValueError, match=r"has shape \(2,\), expected \(3,\)"):
        Ket(T2, [1.0, 0.0])


def test_ket_amplitudes_are_read_only():
    k = basis_ket(T2, "A")
    with pytest.raises(ValueError):
        k.amplitudes[0] = 2.0


def test_projector_from_single_label():
    p = projector_from_labels(T2, {"A"})
    np.testing.assert_array_equal(p.matrix, np.diag([1.0, 0.0, 0.0]))
    assert p.name == "A2"


def test_projector_from_label_pair_is_complement_of_a():
    p = projector_from_labels(T2, {"B", "C"})
    np.testing.assert_array_equal(p.matrix, np.diag([0.0, 1.0, 1.0]))
    assert np.trace(p.matrix).real == pytest.approx(2.0)
    assert p.name == "B2+C2"
    q = projector_from_labels(T2, {"A"}).complement()
    np.testing.assert_array_equal(q.matrix, p.matrix)
    assert q.name == "B2+C2"


def test_complement_names_follow_exact_label_projectors_only():
    for labels in [{"A"}, {"B"}, {"A", "C"}, {"B", "C"}]:
        rest = [lab for lab in T2.basis if lab not in labels]
        q = projector_from_labels(T2, labels).complement()
        assert q.name == "+".join(f"{lab}2" for lab in rest)
    assert identity_projector(T2).complement().name == "0@t2"
    assert projector_from_labels(T2, {"A", "B", "C"}).complement().name == "0@t2"
    # within DEFAULT_TOL of a label projector, but not one: no label name
    p = Projector(T2, np.diag([1.0, 1e-300, 0.0]), "P")
    assert p.complement().name == "~P"
    assert Projector(T2, p.matrix).complement().name == ""


def test_no_public_callable_takes_a_tolerance():
    # the cuts live in one table, `_CUTS`: no function, constructor or
    # method of the package takes a tolerance of its own
    checked = set()
    for name, obj in vars(qhistories).items():
        if name.startswith("_") or not callable(obj):
            continue
        targets = {name: obj}
        if inspect.isclass(obj):
            targets.update(
                (f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                if not attr.startswith("_") and inspect.isfunction(fn)
            )
        for label, fn in targets.items():
            try:
                params = inspect.signature(fn).parameters
            except ValueError:  # an exception class with a builtin constructor
                continue
            assert "tol" not in params, label
            checked.add(label)
    assert {
        "Projector", "PDI", "pdi_validate", "consistency_check",
        "born_probabilities", "conditional_probability", "refine", "infer",
        "TwoStateVector.weak_value", "weak_value",
        "presence_table", "branch_components", "coincidence_support",
    } <= checked


def test_projector_from_all_labels_is_identity():
    p = projector_from_labels(T2, {"A", "B", "C"})
    np.testing.assert_array_equal(p.matrix, np.eye(3))


def test_projector_rejects_unknown_label():
    with pytest.raises(ValueError) as exc:
        projector_from_labels(T2, {"X"})
    assert "X" in str(exc.value) and "t2" in str(exc.value)


def test_projector_validates_hermiticity_and_idempotence():
    with pytest.raises(ValueError, match="Hermitian"):
        Projector(T2, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="idempotent"):
        Projector(T2, np.diag([0.5, 0.0, 0.0]).astype(complex))


def test_rank_one_projector_matches_outer_product_oracle():
    # backward-evolved output state at the middle slice, alpha2 = 1/3
    a, b, r = np.sqrt(1 / 3), np.sqrt(2 / 3), np.sqrt(0.5)
    amps = np.array([a, -r * b, r * b], dtype=complex)
    k = Ket(T2, amps)
    p = projector_from_ket(k)
    expected = np.outer(amps, amps.conj())  # already normalized
    np.testing.assert_allclose(p.matrix, expected, atol=1e-14)
    assert np.trace(p.matrix).real == pytest.approx(1.0)


def test_rank_one_projector_on_basis_ket_agrees_with_labels():
    p = projector_from_ket(basis_ket(T2, "A"))
    np.testing.assert_array_equal(p.matrix, np.diag([1.0, 0.0, 0.0]))


def test_rank_one_inside_rank_two_subspace():
    k = Ket(T2, np.array([0, 1, 1], dtype=complex) / np.sqrt(2))
    p = projector_from_ket(k)
    bc = projector_from_labels(T2, {"B", "C"})
    # strictly inside: bc absorbs p but they differ
    np.testing.assert_allclose(bc.matrix @ p.matrix, p.matrix, atol=1e-14)
    assert np.max(np.abs(bc.matrix - p.matrix)) > 0.4
    assert np.trace(p.matrix).real == pytest.approx(1.0)


def test_projector_from_zero_ket_rejected():
    with pytest.raises(ValueError, match="zero ket"):
        projector_from_ket(Ket(T2, [0.0, 0.0, 0.0]))
    # the squared norm exactly at the ray cut, DEFAULT_TOL**2, is a zero
    # ket; the next float above it, reached by a second tiny amplitude, is not
    cut = _CUTS["ray norm2"]
    assert cut == DEFAULT_TOL**2
    at = Ket(T2, [DEFAULT_TOL, 0.0, 0.0])
    above = Ket(T2, [DEFAULT_TOL, np.sqrt(np.spacing(cut)), 0.0])
    assert np.vdot(at.amplitudes, at.amplitudes).real == cut
    assert np.vdot(above.amplitudes, above.amplitudes).real == np.nextafter(cut, np.inf)
    with pytest.raises(ValueError, match="zero ket"):
        projector_from_ket(at)
    assert projector_from_ket(above).slice == T2


@pytest.mark.parametrize("kind", sorted(_CUTS))
def test_each_cut_is_negligible_and_the_next_float_is_not(kind):
    cut = _CUTS[kind]
    above = np.nextafter(cut, np.inf)
    assert _negligible(cut, kind) and not _negligible(above, kind)
    # elementwise on an array, with the verdicts of the scalars
    values = np.array([np.nextafter(cut, -np.inf), cut, above])
    assert _negligible(values, kind).tolist() == [True, True, False]


def test_no_module_but_statespace_holds_a_cut():
    # DEFAULT_TOL appears outside statespace only as the package export and
    # the paper-suite tolerance of `cli.RunConfig`; no comparison outside
    # statespace holds a float literal but the range bounds 0.0 and 1.0, nor
    # judges a value by `<= 0.0` or `> 0.0`, nor calls `isclose`
    src = Path(qhistories.__file__).parent
    uses = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "statespace.py":
            continue
        text = path.read_text()
        uses[path.name] = [line.strip() for line in text.splitlines() if "DEFAULT_TOL" in line]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                floats = [o.value for o in operands
                          if isinstance(o, ast.Constant) and isinstance(o.value, float)]
                assert set(floats) <= {0.0, 1.0}, (path.name, node.lineno)
                for op, right in zip(node.ops, node.comparators):
                    if isinstance(op, (ast.LtE, ast.Gt)) and isinstance(right, ast.Constant):
                        assert right.value != 0.0, (path.name, node.lineno)
            name = getattr(node, "attr", getattr(node, "id", None))
            assert name != "isclose", (path.name, node.lineno)
    assert {name: lines for name, lines in uses.items() if lines} == {
        "__init__.py": ["DEFAULT_TOL,"],
        "cli.py": ["from .statespace import DEFAULT_TOL, _negligible, basis_ket, inner",
                   "tolerance: float = DEFAULT_TOL"],
    }


def test_only_statespace_reads_a_projectors_format():
    # a label projector's `_on` and any projector's `matrix` are read in
    # statespace alone; the one other `.matrix` is a step's, in dynamics
    src = Path(qhistories.__file__).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        if path.name == "statespace.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_on", "matrix"):
                reads.append((path.name, node.attr, ast.unparse(node.value)))
            assert not (isinstance(node, ast.Constant) and node.value == "_on"), path.name
    assert set(reads) == {
        ("dynamics.py", "matrix", "self"),
        ("dynamics.py", "matrix", "dyn.steps[j]"),
    }


def test_projector_idempotent_on_own_ray():
    rng = np.random.default_rng(7)
    for _ in range(100):
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        k = Ket(T2, amps)
        p = projector_from_ket(k)
        back = p.matrix @ k.amplitudes
        assert np.max(np.abs(back - k.amplitudes)) <= 1e-10


def test_pdi_validate_accepts_a_and_complement():
    report = pdi_validate(
        [projector_from_labels(T2, {"A"}), projector_from_labels(T2, {"B", "C"})]
    )
    assert report.ok
    assert report.max_residual <= 1e-12


def test_pdi_validate_flags_incomplete_sum():
    report = pdi_validate(
        [projector_from_labels(T2, {"A"}), projector_from_labels(T2, {"B"})]
    )
    assert not report.ok
    assert report.max_residual == pytest.approx(1.0)
    assert "identity" in report.worst and "C" in report.worst


def test_pdi_validate_accepts_rank_one_and_complement():
    a, b, r = np.sqrt(1 / 3), np.sqrt(2 / 3), np.sqrt(0.5)
    p = projector_from_ket(Ket(T2, [a, -r * b, r * b]))
    report = pdi_validate([p, p.complement()])
    assert report.ok


def test_pdi_validate_rejects_mixed_slices():
    other = TimeSlice(3, ("A", "E", "H"))
    with pytest.raises(ValueError, match=re.escape(f"part lives on {other}, not {T2}")):
        pdi_validate(
            [projector_from_labels(T2, {"A"}), projector_from_labels(other, {"E", "H"})]
        )


def test_pdi_constructor_enforces_validity():
    with pytest.raises(ValueError, match="not a projective decomposition"):
        PDI(T2, (projector_from_labels(T2, {"A"}), projector_from_labels(T2, {"B"})))


def test_pdi_trace_sums_to_dimension():
    pdi = slice_pdi(T2)
    assert sum(np.trace(p.matrix).real for p in pdi) == pytest.approx(T2.dim)


@given(
    st.sets(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=3),
)
def test_label_projector_plus_complement_is_identity_exactly(labels):
    p = projector_from_labels(T2, labels)
    total = p.matrix + p.complement().matrix
    assert np.array_equal(total, np.eye(3, dtype=complex))


@settings(max_examples=60)
@given(st.lists(st.booleans(), min_size=1, max_size=8), st.booleans())
def test_label_complement_is_the_dense_complement_bit_for_bit(on, signed_zeros):
    # I - P, built from the other channels' mask, has the bits of
    # np.eye - P.matrix, and of the checked complement of a caller's matrix
    # with P's entries, also when that matrix's zeros carry a minus sign
    slc = TimeSlice(1, tuple(f"c{i}" for i in range(len(on))))
    p = _label_event(slc, on)
    for q in (p, p.complement()):
        dense = np.eye(len(on), dtype=complex) - q.matrix
        assert q.complement().matrix.tobytes() == dense.tobytes()
    m = np.diag(np.array(on, dtype=complex))
    if signed_zeros:
        m = np.where(m == 0, complex(-0.0, -0.0), complex(1.0, -0.0) * m)
    caller = Projector(slc, m, "P").complement()
    assert caller._on is None
    assert p.complement().matrix.tobytes() == caller.matrix.tobytes()


@given(
    st.lists(
        st.tuples(
            st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
        ),
        min_size=3,
        max_size=3,
    )
)
def test_random_ray_projector_invariants(pairs):
    amps = np.array([complex(re, im) for re, im in pairs])
    if np.linalg.norm(amps) < 1e-3:
        return
    p = projector_from_ket(Ket(T2, amps))
    assert np.max(np.abs(p.matrix - p.matrix.conj().T)) <= 1e-12
    assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) <= 1e-12
    report = pdi_validate([p, p.complement()])
    assert report.ok


def test_inner_requires_matching_slices():
    other = TimeSlice(3, ("A", "E", "H"))
    with pytest.raises(ValueError, match=re.escape(f"ket lives on {other}, not {T2}")):
        inner(basis_ket(T2, "A"), basis_ket(other, "A"))


def test_identity_projector_name_and_matrix():
    ident = identity_projector(T2)
    assert ident.name == "I2"
    np.testing.assert_array_equal(ident.matrix, np.eye(3))


# ---------------------------------------------------------------------------
# every check stays on the public constructors; library-built values are
# read-only without a second check


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_ket_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        Ket(T2, [1.0, bad, 0.0])


def test_ket_rejects_a_matrix_of_amplitudes():
    with pytest.raises(ValueError, match=r"has shape \(3, 3\), expected \(3,\)"):
        Ket(T2, np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_projector_rejects_non_finite_entries(bad):
    m = np.diag([1.0, 0.0, 0.0]).astype(complex)
    m[2, 2] = bad
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        Projector(T2, m)


@pytest.mark.parametrize(
    "matrix, match",
    [
        (np.ones((3, 2)), "has shape"),
        (np.ones(3), "has shape"),
        (np.eye(2), "has shape"),
        (None, re.escape("has shape (), expected (3, 3)")),
        (np.array([[1, 1, 0], [0, 0, 0], [0, 0, 0]]), "not Hermitian"),
        (np.diag([2.0, 0.0, 0.0]), "not idempotent"),
    ],
)
def test_projector_rejects_each_invalid_matrix(matrix, match):
    with pytest.raises(ValueError, match=match):
        Projector(T2, matrix)


@pytest.mark.parametrize(
    "slc, amps",
    [(T2, [1e200, 1e200, 0.0]), (T2, [-1e300j, -1e300j, 0.0]), (T2, [1e155, 1e155, 0.0]),
     (XY, [1e200, 1e200]), (XY, [-1e300j, -1e300j])],
    ids=["1e200", "-1e300j", "1e155", "xy-1e200", "xy-1e300j"],
)
def test_kets_whose_squared_norm_overflows_are_rejected_at_intake(slc, amps):
    # finite amplitudes whose squared norm overflows float64
    message = "amplitudes must be finite and at most 1e+100 in modulus (ket)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Ket(slc, amps)


def test_a_ket_at_the_amplitude_bound_keeps_every_result_finite():
    # every amplitude exactly at the bound, on Haar dynamics (d = 64): no
    # product, norm, weight, D entry or cell overflows, and no
    # RuntimeWarning is raised (pytest turns one into an error)
    d = 64
    dyn, _ = haar_dynamics(17, dim=d)
    k = Ket(dyn.slices[0], np.resize([1, -1, 1j, -1j], d) * _AMPLITUDE_BOUND)
    assert (np.abs(k.amplitudes) == _AMPLITUDE_BOUND).all()
    norm = np.sqrt(d) * _AMPLITUDE_BOUND

    def finite(x):
        assert np.isfinite(x).all()
        return x

    assert finite(k.norm()) == pytest.approx(norm, rel=1e-15)
    assert np.trace(finite(projector_from_ket(k).matrix)).real == pytest.approx(1.0)
    for t in range(len(dyn.slices)):
        assert finite(transport(dyn, k, t).norm()) == pytest.approx(norm, rel=1e-13)

    parts = {t: [projector_from_labels(slc, {f"c{i}" for i in range(j, d, 4)}) for j in range(4)]
             for t, slc in enumerate(dyn.slices)}
    deep = [History(((1, a), (3, b))) for a in parts[1][:2] for b in parts[3][:2]]
    deep.append(History(((2, parts[2][0]),)))  # ends early: carried to t3 for D
    report = consistency_check(dyn, Family(k, deep))
    finite(report.max_overlap)
    finite([v for *_, v in report.offending_pairs])
    for h in deep:
        finite(chain_ket(dyn, k, h).amplitudes)
    weights = born_probabilities(dyn, Family(k, [History(((4, p),)) for p in parts[4]], True))
    assert sum(finite(list(weights.values()))) == pytest.approx(norm**2, rel=1e-13)

    probes = (ProbeSpec("a", frozenset({(1, "c0")})),
              ProbeSpec("b", frozenset({(2, "c1"), (2, "c2")})),
              ProbeSpec("c", frozenset({(3, "c5")})))
    js = evolve_with_probes(dyn, probes, ProbeStrength(0.2), k)
    finite(js.amplitudes)
    for branch in branch_components(js):
        finite(branch.phi.amplitudes)
    final = dyn.slices[-1]
    ray = projector_from_ket(Ket(final, haar_unitary(np.random.default_rng(2), d)[0]))
    for pdi in (slice_pdi(final), PDI(final, parts[4]), PDI(final, (ray, ray.complement()))):
        dist = outcome_distribution(js, pdi)
        assert finite(dist.total()) == pytest.approx(norm**2, rel=1e-13)


@pytest.mark.parametrize(
    "copier",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_values_computed_from_a_ket_at_the_bound_copy_as_computed(copier):
    # a step mixes d amplitudes, so a computed amplitude can lie past the
    # intake bound by up to sqrt(d); a copy is no new input and keeps it
    d = 64
    dyn, _ = haar_dynamics(17, dim=d)
    k = Ket(dyn.slices[0], np.resize([1, -1, 1j, -1j], d) * _AMPLITUDE_BOUND)
    probes = (ProbeSpec("a", frozenset({(1, "c0")})), ProbeSpec("b", frozenset({(3, "c5")})))
    js = evolve_with_probes(dyn, probes, ProbeStrength(0.2), k)
    values = [(transport(dyn, k, t), "amplitudes") for t in range(1, len(dyn.slices))]
    values += [(js, "amplitudes"), (branch_components(js)[0].phi, "amplitudes")]
    for value, field in values:
        arr = getattr(value, field)
        assert np.abs(arr).max() > _AMPLITUDE_BOUND
        dup = copier(value)
        assert type(dup) is type(value) and dup.slice == value.slice
        assert getattr(dup, field).tobytes() == arr.tobytes()
        assert getattr(dup, field).flags.writeable is False
    assert copier(js).probes == js.probes
    with pytest.raises(ValueError, match="at most 1e"):
        Ket(dyn.slices[1], transport(dyn, k, 1).amplitudes)


def test_projector_from_ket_keeps_its_bits_when_the_norm_is_finite():
    amps = np.array([0.3 + 0.1j, -0.7, 1e-9j])
    m = np.outer(amps, amps.conj()) / float(np.vdot(amps, amps).real)
    np.testing.assert_array_equal(projector_from_ket(Ket(T2, amps)).matrix, m)


def test_ket_norm_keeps_the_bits_of_np_linalg_norm_when_finite():
    dyn = build_nested_mzi(BeamSplitterParams(0.3))
    kets = [source_ket(dyn), basis_ket(T2, "B"), Ket(T2, [0.3 + 0.1j, -0.7, 1e-9j])]
    kets += [transport(dyn, source_ket(dyn), t) for t in range(1, 5)]
    for k in kets:
        assert k.norm().hex() == float(np.linalg.norm(k.amplitudes)).hex()


def test_pdi_rejects_parts_on_another_slice():
    other = TimeSlice(3, ("A", "E", "H"))
    with pytest.raises(ValueError, match=re.escape(f"part lives on {other}, not {T2}")):
        PDI(T2, (projector_from_labels(other, {"A"}), projector_from_labels(other, {"E", "H"})))


def test_pdi_rejects_overlapping_parts():
    a = projector_from_labels(T2, {"A"})
    ab = projector_from_labels(T2, {"A", "B"})
    with pytest.raises(ValueError, match="not orthogonal"):
        PDI(T2, (a, ab, projector_from_labels(T2, {"C"})))


def test_library_built_values_are_read_only():
    arrays = [
        basis_ket(T2, "B").amplitudes,
        projector_from_labels(T2, {"A", "C"}).matrix,
        identity_projector(T2).matrix,
        *(p.matrix for p in slice_pdi(T2).parts),
    ]
    for arr in arrays:
        assert arr.flags.writeable is False
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_library_built_values_match_the_validated_constructors():
    # the same objects the public constructors accept, field for field
    k = basis_ket(T2, "B")
    ref = Ket(T2, [0, 1, 0], "B2")
    assert (k.slice, k.name) == (ref.slice, ref.name)
    np.testing.assert_array_equal(k.amplitudes, ref.amplitudes)
    assert k.amplitudes.dtype == complex
    p = projector_from_labels(T2, {"A", "C"})
    q = Projector(T2, np.diag([1, 0, 1]), "A2+C2")
    assert (p.slice, p.name) == (q.slice, q.name)
    np.testing.assert_array_equal(p.matrix, q.matrix)
    pdi = slice_pdi(T2)
    assert pdi.slice == T2 and isinstance(pdi.parts, tuple) and len(pdi) == 3
    assert pdi_validate(pdi.parts).ok


def _array_values():
    """(value, name of its array field) for the value classes that hold an
    array; `OutcomeDistribution` has its own test in test_probes.py."""
    dyn = build_nested_mzi(BeamSplitterParams(1 / 3))
    s0 = source_ket(dyn)
    js = evolve_with_probes(dyn, standard_probes("ab"), ProbeStrength(0.01), s0)
    return [
        (s0, "amplitudes"),
        (transport(dyn, s0, 3), "amplitudes"),
        (Ket(T2, [0.6, 0.8j, 0]), "amplitudes"),
        (dyn.steps[1], "matrix"),
        (projector_from_labels(T2, {"A", "C"}), "matrix"),
        (projector_from_ket(Ket(T2, [1, 1j, 0])), "matrix"),
        (js, "amplitudes"),
    ]


@pytest.mark.parametrize(
    "copier",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_copies_keep_their_arrays_read_only(copier):
    for value, field in _array_values():
        dup = copier(value)
        assert type(dup) is type(value)
        arr = getattr(dup, field)
        np.testing.assert_array_equal(arr, getattr(value, field))
        assert arr.flags.writeable is False
        with pytest.raises(ValueError):
            arr[0] = 0.5


def _recorded(p):
    on = p._on
    assert on is None or (on.dtype == bool and on.flags.writeable is False)
    return None if on is None else on.tolist()


def test_label_projectors_record_their_support():
    ac = projector_from_labels(T2, {"A", "C"})
    assert _recorded(ac) == [True, False, True]
    assert _recorded(ac.complement()) == [False, True, False]
    assert _recorded(identity_projector(T2)) == [True] * 3
    assert _recorded(identity_projector(T2).complement()) == [False] * 3
    assert [_recorded(p) for p in slice_pdi(T2)] == np.eye(3, dtype=bool).tolist()
    with pytest.raises(ValueError):
        ac._on[0] = False


def test_other_projectors_record_no_support():
    # the checked constructor never reads a format off a caller's entries,
    # not even off an exact 0/1 diagonal
    pair = np.diag([1.0, 1.0, 0.0])
    pair[0, 1] = pair[1, 0] = 1e-200
    for p in [
        projector_from_ket(Ket(T2, [1, 1j, 0])),
        projector_from_ket(Ket(T2, [0.6, 0.8, 0])).complement(),
        Projector(T2, pair),
        Projector(T2, np.diag([1.0, 1e-300, 0.0])),
        Projector(T2, np.diag([1.0, 1 - 2**-53, 0.0])),
        Projector(T2, np.diag([1, 0, 1])),
        Projector(T2, np.diag([0j, -0.0, 1])),
        Projector(T2, np.zeros((3, 3))),
        projector_from_ket(basis_ket(T2, "B")),
    ]:
        assert _recorded(p) is None
        assert "matrix" in vars(p)


@pytest.mark.parametrize(
    "p, name",
    [
        (Projector(T2, np.diag([1, 0, 1]), "X"), "~X"),
        (Projector(T2, np.diag([1, 0, 1])), ""),
        (Projector(T2, np.diag([complex(-0.0, -0.0), complex(1.0, -0.0), -0.0]), "Z"), "~Z"),
        (Projector(T2, np.zeros((3, 3)), "0"), "~0"),
        (projector_from_ket(basis_ket(T2, "B")), "~[B2]"),
    ],
    ids=["diag-101", "unnamed", "signed-zeros", "zero", "basis-ray"],
)
def test_a_checked_projector_is_dense_whatever_its_entries(p, name):
    # a checked projector holds its matrix, and the helpers take its dense
    # product, even where the entries are those of a label projector
    assert p._on is None
    v = np.array([0.3 - 0.1j, -0.0 + 2.0j, 1e-300 - 0.0j])
    assert _apply(p, v).tobytes() == (p.matrix @ v).tobytes()
    rows = np.array([v, v.conj(), np.ones(3)])
    prods = np.array([p.matrix @ row for row in rows])
    want = np.sum(np.abs(prods) ** 2, axis=1)
    assert _norms2([p], rows).ravel().tobytes() == want.tobytes()
    # its complement is dense too, named after it rather than after a support
    c = p.complement()
    assert (c._on, c.name) == (None, name)


@pytest.mark.parametrize(
    "copier",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_copies_record_the_same_support(copier):
    for p in [
        projector_from_labels(T2, {"A", "C"}),
        identity_projector(T2).complement(),
        Projector(T2, np.diag([0, 1, 0])),
        projector_from_ket(Ket(T2, [1, 1j, 0])),
    ]:
        assert _recorded(copier(p)) == _recorded(p)


def test_recorded_support_is_not_a_field():
    assert [f.name for f in dataclasses.fields(Projector)] == ["slice", "matrix", "name"]
    assert repr(projector_from_labels(T2, {"A", "C"})) == (
        "Projector(slice=TimeSlice(time_index=2, basis=('A', 'B', 'C')), "
        "matrix=array([[1.+0.j, 0.+0.j, 0.+0.j],\n"
        "       [0.+0.j, 0.+0.j, 0.+0.j],\n"
        "       [0.+0.j, 0.+0.j, 1.+0.j]]), name='A2+C2')"
    )


def _built_label_projectors(d):
    """(projector, the dense matrix a label projector used to store) for
    `projector_from_labels`, `identity_projector` and their complements on a
    slice of `d` channels."""
    slc = TimeSlice(1, tuple(f"c{i}" for i in range(d)))
    on = np.arange(d) % 3 == 0
    p = projector_from_labels(slc, {lab for lab, kept in zip(slc.basis, on) if kept})
    ident = identity_projector(slc)
    return [
        (p, np.diag(on.astype(complex))),
        (p.complement(), np.diag((~on).astype(complex))),
        (ident, np.eye(d, dtype=complex)),
        (ident.complement(), np.zeros((d, d), dtype=complex)),
    ]


@pytest.mark.parametrize("d", [1, 3, 64])
def test_label_projectors_build_their_matrix_on_each_read(d):
    for p, stored in _built_label_projectors(d):
        assert "matrix" not in vars(p)
        first, second = p.matrix, p.matrix
        assert first is not second and not np.shares_memory(first, second)
        for m in (first, second):
            assert m.tobytes() == stored.tobytes()
            assert m.dtype == np.complex128 and m.shape == (d, d)
            assert m.flags.c_contiguous and m.flags.writeable is False


def test_a_checked_or_ray_projector_keeps_the_matrix_it_holds():
    for p in [Projector(T2, np.diag([1, 0, 1])), projector_from_ket(Ket(T2, [1, 1j, 0]))]:
        assert vars(p)["matrix"] is p.matrix
    with pytest.raises(dataclasses.FrozenInstanceError):
        projector_from_labels(T2, {"A"}).matrix = np.eye(3)
    with pytest.raises(TypeError, match="matrix"):
        Projector(T2)


@pytest.mark.parametrize(
    "copier",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_copies_of_a_label_projector_keep_its_mask_and_matrix(copier):
    for d in (3, 64):
        for p, _ in _built_label_projectors(d):
            dup = copier(p)
            assert "matrix" not in vars(dup)
            assert (dup.slice, dup.name) == (p.slice, p.name)
            assert dup._on.tobytes() == p._on.tobytes()
            assert dup.matrix.tobytes() == p.matrix.tobytes()
            assert dup.matrix.flags.writeable is False


@pytest.mark.parametrize(
    "copier",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_copies_are_no_new_input(copier, monkeypatch):
    # pickle and copy rebuild a value from what it holds, with no check rerun
    values = [T2, StepUnitary(T2, TimeSlice(3, T2.basis), np.eye(3)),
              Projector(T2, np.diag([1, 0, 1])), projector_from_labels(T2, {"A"})]

    def rerun(self):
        raise AssertionError(f"{type(self).__name__} checked again")

    for cls in (TimeSlice, StepUnitary, Projector):
        monkeypatch.setattr(cls, "__post_init__", rerun)
    for value in values:
        dup = copier(value)
        assert type(dup) is type(value) and vars(dup).keys() == vars(value).keys()


def _dense(p):
    """`p` rebuilt by the checked constructor, which holds the matrix, so
    that every test takes the dense path."""
    return Projector(p.slice, p.matrix, p.name)


@pytest.mark.parametrize(
    "groups",
    [
        ("A", "BC"),
        ("A", "C"),
        ("B",),
        ("AB", "BC"),
        ("A", "A", "A", "BC"),
        ("A", "AB", "C", "C"),
    ],
    ids=["decomposition", "missing", "two-missing", "doubled", "tripled", "doubled-twice"],
)
def test_pdi_validate_sums_label_parts_as_their_dense_matrices(groups):
    parts = [projector_from_labels(T2, set(g)) for g in groups]
    assert pdi_validate(parts) == pdi_validate([_dense(p) for p in parts])


@settings(max_examples=60)
@given(st.lists(st.sets(st.integers(0, 63), min_size=1), min_size=1, max_size=6))
def test_pdi_validate_of_label_parts_is_the_dense_report_at_d64(groups):
    slc = TimeSlice(1, tuple(f"c{i}" for i in range(64)))
    parts = [projector_from_labels(slc, {f"c{i}" for i in g}) for g in groups]
    assert pdi_validate(parts) == pdi_validate([_dense(p) for p in parts])


#: Real and imaginary parts: signed zeros, subnormals, normals, huge values.
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300]),
    st.floats(-1e-308, 1e-308),
    st.floats(-1e3, 1e3),
)


def _amplitudes(re, im):
    """A complex array with exactly these parts (1j * x would lose the sign
    of a zero)."""
    v = np.empty(len(re), dtype=complex)
    v.real, v.imag = re, im
    return v


def _label_event(slc, on):
    """The label projector with support `on`; with none, the complement of
    the identity."""
    labels = {lab for lab, kept in zip(slc.basis, on) if kept}
    return projector_from_labels(slc, labels) if labels else identity_projector(slc).complement()


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_label_event_applies_as_its_dense_product_bit_for_bit(data):
    d = data.draw(st.integers(1, 100), label="d")
    slc = TimeSlice(0, tuple(f"c{i}" for i in range(d)))
    on = data.draw(st.one_of(
        st.just([False] * d), st.just([True] * d),
        st.lists(st.booleans(), min_size=d, max_size=d),
    ), label="on")
    p = _label_event(slc, on)
    assert p._on.tolist() == on
    parts = st.lists(_PARTS, min_size=d, max_size=d)
    v = _amplitudes(data.draw(parts, label="re"), data.draw(parts, label="im"))
    assert _apply(p, v).tobytes() == (p.matrix @ v).tobytes()


def test_a_ray_takes_the_dense_product():
    rng = np.random.default_rng(4)
    slc = TimeSlice(0, tuple(f"c{i}" for i in range(6)))
    for _ in range(5):
        ray = projector_from_ket(Ket(slc, rng.normal(size=6) + 1j * rng.normal(size=6)))
        assert ray._on is None
        for p in (ray, ray.complement()):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            assert _apply(p, v).tobytes() == (p.matrix @ v).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf)], ids=["inf", "-inf", "inf*j"])
def test_an_infinite_amplitude_masked_away_stays_non_finite(bad):
    # inf * 0 is NaN where the event drops the channel; unlike the dense
    # product, the kept channels keep their values
    slc = TimeSlice(0, ("x", "y", "z"))
    v = np.array([bad, 1.0, 2.0], dtype=complex)
    with np.errstate(invalid="ignore"):
        out = _apply(projector_from_labels(slc, {"y"}), v)
    assert np.isnan(out[0]) and not np.isfinite(out).all()
    assert out[1:].tolist() == [1.0, 0.0]
