"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the workload
seed, so the same seed gives the same inputs.  The library only ever sees
the generated values.  Each generator also computes, with plain numpy and
independently of the library, the reference numbers the workload checks the
library's outputs against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qhistories import (
    BeamSplitterParams,
    Dynamics,
    Family,
    History,
    Ket,
    NamedFamilyId,
    PDI,
    ProbeSpec,
    ProbeStrength,
    StepUnitary,
    TimeSlice,
    identity_projector,
    projector_from_labels,
    refine,
    slice_pdi,
)

#: Decohering and Haar families are told apart by a wide margin: consistent
#: families have overlaps at rounding level, generic ones far above it.
CONSISTENT_MAX = 1e-12
INCONSISTENT_MIN = 1e-6
WEIGHT_SUM_TOL = 1e-9


def make_slices(d: int, n_slices: int) -> tuple[TimeSlice, ...]:
    labels = tuple(f"c{i:02d}" for i in range(d))
    return tuple(TimeSlice(t, labels) for t in range(n_slices))


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_dynamics(rng: np.random.Generator, d: int, n_slices: int) -> Dynamics:
    slices = make_slices(d, n_slices)
    steps = tuple(
        StepUnitary(slices[j], slices[j + 1], haar_unitary(rng, d))
        for j in range(n_slices - 1)
    )
    return Dynamics(slices, steps)


def block_permutation_dynamics(
    rng: np.random.Generator, d: int, block: int, n_slices: int
) -> tuple[Dynamics, list[np.ndarray]]:
    """Steps that send each block of `block` channels onto another block,
    mixing inside it by a Haar unitary.  Returns the dynamics and, per step,
    the block permutation (``perm[b]`` is the image of block b)."""
    n_blocks = d // block
    slices = make_slices(d, n_slices)
    steps, perms = [], []
    for j in range(n_slices - 1):
        perm = rng.permutation(n_blocks)
        m = np.zeros((d, d), dtype=complex)
        for b in range(n_blocks):
            dst = perm[b]
            m[dst * block:(dst + 1) * block, b * block:(b + 1) * block] = haar_unitary(rng, block)
        steps.append(StepUnitary(slices[j], slices[j + 1], m))
        perms.append(perm)
    return Dynamics(slices, tuple(steps)), perms


def random_state(rng: np.random.Generator, slc: TimeSlice) -> Ket:
    v = rng.standard_normal(slc.dim) + 1j * rng.standard_normal(slc.dim)
    return Ket(slc, v / np.linalg.norm(v), "psi")


def split_groups(rng: np.random.Generator, items: int, k: int) -> list[np.ndarray]:
    """A random partition of range(items) into k non-empty groups."""
    order = rng.permutation(items)
    cuts = np.sort(rng.choice(np.arange(1, items), size=k - 1, replace=False))
    return [np.sort(g) for g in np.split(order, cuts)]


def channel_labels(slc: TimeSlice, channels) -> set[str]:
    return {slc.basis[int(c)] for c in channels}


def forward(dyn: Dynamics, v: np.ndarray, t_from: int, t_to: int) -> np.ndarray:
    """Raw amplitudes carried from t_from to t_to >= t_from by the steps."""
    for st in dyn.steps[t_from:t_to]:
        v = st.matrix @ v
    return v


# ---------------------------------------------------------------------------
# histories_scale: refine trees over decohering and Haar dynamics

HIST_DIM = 64
HIST_BLOCK = 4
HIST_SLICES = 5
#: Parts per event time t1..t4 for each tree size: every size up to 72 that
#: is a product of four part counts from 2 to 4, with one shape each.  The
#: shape is fixed so that an op on a tree of a given size costs the same for
#: every seed; the seed picks the matrices, the initial state and which
#: blocks form a part.  The sizes stop at 72: a 72-history query takes about
#: 25 ms, short enough that each op runs many times in a run and its fastest
#: run is found between spells of load on a shared machine.
TREE_SHAPES = {
    16: (2, 2, 2, 2),
    24: (2, 2, 2, 3),
    32: (2, 2, 2, 4),
    36: (2, 2, 3, 3),
    48: (2, 2, 3, 4),
    54: (2, 3, 3, 3),
    64: (2, 4, 2, 4),
    72: (2, 3, 3, 4),
}
HIST_SIZES = tuple(TREE_SHAPES)
COMPLETE_DIM = 8
COMPLETE_TIMES = (1, 2, 3)


@dataclass
class TreeFamily:
    """A family grown by `refine` from one event-free history.

    `levels` maps each event time to its parts (projectors over unions of
    blocks).  `weights` are numpy-computed Born weights in family order and
    `gram_offdiag` the largest chain-ket overlap between distinct histories.
    """

    kind: str
    dyn: Dynamics
    initial: Ket
    levels: dict[int, tuple]
    family: Family
    weights: np.ndarray
    gram_offdiag: float

    @property
    def consistent(self) -> bool:
        return self.kind == "decohering"

    def build(self) -> Family:
        return grow_family(self.initial, self.levels)


def grow_family(initial: Ket, levels: dict[int, tuple], complete: bool = False) -> Family:
    if complete:
        t0 = min(levels)
        start = History(((t0, identity_projector(levels[t0][0].slice)),))
    else:
        start = History(())
    fam = Family(initial, (start,), complete)
    for t in sorted(levels):
        fam = refine(fam, t, levels[t])
    return fam


def numpy_chain_kets(dyn: Dynamics, initial: Ket, family: Family) -> np.ndarray:
    """Chain kets of every history carried to the final slice, stacked as
    columns; computed from the raw matrices."""
    cols = []
    for h in family.histories:
        v, t = initial.amplitudes, initial.slice.time_index
        for et, p in h.events:
            v, t = p.matrix @ forward(dyn, v, t, et), et
        cols.append(forward(dyn, v, t, dyn.final_index))
    return np.stack(cols, axis=1)


def block_channels(blocks) -> np.ndarray:
    return np.concatenate([np.arange(b * HIST_BLOCK, (b + 1) * HIST_BLOCK) for b in blocks])


def tree_family(rng, kind: str, n: int, dyn: Dynamics, perms) -> TreeFamily:
    n_blocks = HIST_DIM // HIST_BLOCK
    levels = {}
    for t, k in zip(range(1, HIST_SLICES), TREE_SHAPES[n]):
        slc = dyn.slices[t]
        parts = []
        for i, blocks in enumerate(split_groups(rng, n_blocks, k)):
            labels = channel_labels(slc, block_channels(blocks))
            parts.append(projector_from_labels(slc, labels, f"P{t}.{i}"))
        levels[t] = tuple(parts)
    initial = random_state(rng, dyn.slices[0])
    family = grow_family(initial, levels)
    c = numpy_chain_kets(dyn, initial, family)
    gram = c.conj().T @ c
    weights = np.real(np.diagonal(gram)).copy()
    off = np.abs(gram - np.diag(np.diagonal(gram)))
    tf = TreeFamily(kind, dyn, initial, levels, family, weights, float(off.max()))
    if kind == "decohering":
        check_block_weights(tf, perms)
    return tf


def check_block_weights(tf: TreeFamily, perms) -> None:
    """Recompute the weights of a decohering family from block trajectories
    alone: each initial block follows one path, so a history's weight is the
    initial mass of the blocks whose path lies inside all its events."""
    n_blocks = HIST_DIM // HIST_BLOCK
    amps = tf.initial.amplitudes.reshape(n_blocks, HIST_BLOCK)
    mass = np.sum(np.abs(amps) ** 2, axis=1)
    expected = np.zeros(len(tf.family.histories))
    for b in range(n_blocks):
        path = [b]
        for perm in perms:
            path.append(int(perm[path[-1]]))
        for i, h in enumerate(tf.family.histories):
            if all(p.matrix[path[t] * HIST_BLOCK, path[t] * HIST_BLOCK] == 1 for t, p in h.events):
                expected[i] += mass[b]
    if not np.allclose(expected, tf.weights, rtol=0, atol=WEIGHT_SUM_TOL):
        raise AssertionError("block-trajectory weights disagree with chain-ket weights")


def self_check_tree(tf: TreeFamily, n: int) -> None:
    """Assert the family's designed verdict before any op runs."""
    if len(tf.family.histories) != n:
        raise AssertionError(f"{tf.kind} tree has {len(tf.family.histories)} histories, wanted {n}")
    if tf.consistent:
        if tf.gram_offdiag > CONSISTENT_MAX:
            raise AssertionError(f"decohering family overlaps by {tf.gram_offdiag:.3g}")
        if abs(tf.weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise AssertionError(f"decohering weights sum to {tf.weights.sum()!r}")
    elif tf.gram_offdiag < INCONSISTENT_MIN:
        raise AssertionError(f"Haar family overlaps by only {tf.gram_offdiag:.3g}")


@dataclass
class CompleteCase:
    """A complete family over d = 8 whose coverage check spans d**3 dims."""

    initial: Ket
    levels: dict[int, tuple]
    n_histories: int


def complete_case(rng) -> CompleteCase:
    dyn = haar_dynamics(rng, COMPLETE_DIM, len(COMPLETE_TIMES) + 1)
    levels = {}
    for t in COMPLETE_TIMES:
        slc = dyn.slices[t]
        groups = split_groups(rng, COMPLETE_DIM, 2)
        levels[t] = tuple(
            projector_from_labels(slc, channel_labels(slc, g), f"Q{t}.{i}")
            for i, g in enumerate(groups)
        )
    return CompleteCase(random_state(rng, dyn.slices[0]), levels, 2 ** len(COMPLETE_TIMES))


@dataclass
class HistoriesInputs:
    trees: list[TreeFamily]
    dyns: dict[str, Dynamics]
    complete: CompleteCase


def histories_inputs(seed: int) -> HistoriesInputs:
    rng = np.random.default_rng([seed, 1])
    deco, perms = block_permutation_dynamics(rng, HIST_DIM, HIST_BLOCK, HIST_SLICES)
    dyns = {"decohering": deco, "haar": haar_dynamics(rng, HIST_DIM, HIST_SLICES)}
    trees = []
    for n in HIST_SIZES:
        for kind, dyn in dyns.items():
            tf = tree_family(rng, kind, n, dyn, perms)
            self_check_tree(tf, n)
            trees.append(tf)
    return HistoriesInputs(trees, dyns, complete_case(rng))


# ---------------------------------------------------------------------------
# probes_scale: single-channel probes on Haar dynamics

PROBE_DIM = 8
PROBE_SLICES = 6
#: Probes per op in one pass: 20 readouts at each probe count, so that a
#: pass holds 100 ops.  The counts stop at 8, whose readout takes about
#: 30 ms, so that each op runs many times in a run and its fastest run is
#: found between spells of load.
PROBE_COUNTS = tuple(n for n in range(4, 9) for _ in range(20))
PROBE_EPSILON = 1e-2
PROBE_IDS = "abcdefghijkl"


@dataclass
class ProbeCase:
    probes: tuple[ProbeSpec, ...]
    sample_seed: int


@dataclass
class ProbesInputs:
    dyn: Dynamics
    initial: Ket
    strength: ProbeStrength
    detectors: PDI
    cases: list[ProbeCase]


def probe_set(rng, n: int) -> tuple[ProbeSpec, ...]:
    """n probes, each watching one (time, channel) pair; pairs are distinct.

    The probes are spread evenly over the event times.  The particle is in
    one channel at a time, so at most one probe per time can fire, and the
    number of probe patterns that carry amplitude is the product over times
    of (probes at that time + 1).  Fixing the spread fixes that number, and
    with it an op's cost, for every seed; the seed picks which times get
    the extra probes and which channels are watched."""
    times = np.arange(1, PROBE_SLICES)
    per_time = np.full(len(times), n // len(times))
    per_time[rng.choice(len(times), size=n % len(times), replace=False)] += 1
    pairs = [(int(t), int(c)) for t, k in zip(times, per_time)
             for c in np.sort(rng.choice(PROBE_DIM, size=k, replace=False))]
    return tuple(
        ProbeSpec(PROBE_IDS[i], frozenset({(t, f"c{c:02d}")}))
        for i, (t, c) in enumerate(pairs)
    )


def probes_inputs(seed: int) -> ProbesInputs:
    rng = np.random.default_rng([seed, 2])
    dyn = haar_dynamics(rng, PROBE_DIM, PROBE_SLICES)
    cases = [
        ProbeCase(probe_set(rng, n), int(rng.integers(2**31)))
        for n in PROBE_COUNTS
    ]
    return ProbesInputs(
        dyn, random_state(rng, dyn.slices[0]), ProbeStrength(PROBE_EPSILON),
        slice_pdi(dyn.slices[-1]), cases,
    )


# ---------------------------------------------------------------------------
# paper_cli: a seeded sequence of CLI invocations on the built-in model

#: The documented splitting-ratio domain is 0 < alpha2 < 1.  The grid
#: includes the near-degenerate ratios that ROADMAP item 4 discusses.
ALPHA2_GRID = ("1e-06", "0.001", "0.1", "0.25", "0.3333333333333333", "0.5",
               "0.75", "0.9", "0.999", "0.999999", "0.99999999999")
#: Ratios for the commands other than `consistency`, `probs` and `infer`.
#: The closed-form suite compares at an absolute tolerance, so it only runs
#: where its support lists are resolvable (see `KNOWN_DEFECTS`).
REGULAR_ALPHA2 = ALPHA2_GRID[1:-2]
#: Non-degenerate ratios for `infer`, whose final event needs mass.
INFER_ALPHA2 = ("0.1", "0.25", "0.3333333333333333", "0.5", "0.75", "0.9")
EPSILON_GRID = ("0.0001", "0.001", "0.01")
PROBE_SUBSETS = ("a,d,e,w", "a,d,b,c,e", "a,d,b,c,e,w", "d,w", "a,b,c")
INFER_QUERIES = tuple(
    (f"t{t}", ch, given)
    for t, chans in ((1, "A D Q".split()), (2, "A B C B+C A+B".split()), (3, "A E H".split()))
    for ch in chans
    for given in ("F", "G", "H")
)
FAMILIES = tuple(f.name for f in NamedFamilyId)

#: Ops per command in one pass of the mix.  No record of how often each
#: command is run exists, so every command gets the same number of calls.
#: Fixed counts, with families and probe sets taken in turn, keep the cost
#: of a pass the same for every seed; the seed picks alpha2, format,
#: epsilon, queries and order.  13 calls of each of the 8 commands make a
#: pass of 104 ops, so that more than 10 lie beyond the 90th percentile.
CLI_CALLS_PER_COMMAND = 13
CLI_COMMANDS = ("consistency", "probs", "infer", "weak-values", "probes",
                "coincidences", "sample", "paper-suite")

#: Inputs from ROADMAP item 4 that the program handles wrongly at the time
#: the benchmark was written.  They are run outside the timed mix, and the
#: number still wrong is reported, so that fixing them shows.
KNOWN_DEFECTS = (
    ("infer", {"alpha2": "0.3333333333333333"}, {"time": "t0", "channels": "S", "given": "F"}),
    ("infer", {"alpha2": "0.3333333333333333"}, {"time": "t4", "channels": "F", "given": "F"}),
    ("paper-suite", {"alpha2": "1e-6"}, {}),
    ("weak-values", {"alpha2": "1e-12"}, {}),
    ("infer", {"alpha2": "1e-12"}, {"time": "t2", "channels": "C", "given": "F"}),
)


@dataclass(frozen=True)
class CliCall:
    command: str
    source: str  # config-file text
    overrides: tuple[tuple[str, str], ...]
    options: tuple[tuple[str, str], ...]


def cli_call(rng, command: str, index: int) -> CliCall:
    """The `index`-th call of `command` in a pass."""
    pick = lambda seq: seq[int(rng.integers(len(seq)))]
    fmt = pick(("text", "csv"))
    options: dict[str, str] = {}
    if command in ("consistency", "probs"):
        alpha2 = pick(ALPHA2_GRID)
        options["family"] = FAMILIES[index % len(FAMILIES)]
    elif command == "infer":
        alpha2 = pick(INFER_ALPHA2)
        options.update(zip(("time", "channels", "given"), pick(INFER_QUERIES)))
    else:
        alpha2 = pick(REGULAR_ALPHA2)
    overrides = {"format": fmt}
    if command in ("probes", "coincidences", "sample"):
        overrides["epsilon"] = pick(EPSILON_GRID)
        overrides["probes"] = PROBE_SUBSETS[index % len(PROBE_SUBSETS)]
    if command == "sample":
        overrides["seed"] = str(int(rng.integers(1000)))
    source = f"# generated\nalpha2 = {alpha2}\n"
    return CliCall(command, source, tuple(sorted(overrides.items())), tuple(sorted(options.items())))


def cli_inputs(seed: int) -> list[CliCall]:
    rng = np.random.default_rng([seed, 3])
    calls = [cli_call(rng, cmd, i) for cmd in CLI_COMMANDS for i in range(CLI_CALLS_PER_COMMAND)]
    return [calls[i] for i in rng.permutation(len(calls))]


def params_check() -> None:
    """Every alpha2 of the mix lies in the documented domain."""
    for raw in ALPHA2_GRID:
        BeamSplitterParams(float(raw))
