"""The three workloads: one pass of seeded ops each, with per-op checks.

An op is a `run` callable, which is the only part timed, and a `check`
callable that raises `CheckFailed` when the output is wrong.  Documented
verdicts (`InconsistentFamilyError`, `Incommensurate`, CLI exit codes 0, 3
and 4) are outputs like any other; any other exception fails the op.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qhistories as qh
from qhistories import cli

import inputs

SAMPLES = 1_000_000
TOL = 1e-9


class CheckFailed(AssertionError):
    """An op completed but its output is wrong."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


class Workload:
    """Generated inputs plus one pass of ops over them."""

    name = ""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0])
        self.ops: list[Op] = []

    def shuffle(self) -> None:
        self.ops = [self.ops[i] for i in self.rng.permutation(len(self.ops))]


# ---------------------------------------------------------------------------
# paper_cli

def _cli_values(text: str, fmt: str) -> list[tuple[str, float]]:
    """(quantity, real value) per report row."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return [(r[0], float(r[2])) for r in rows]
    out = []
    for line in text.splitlines():
        left, _, value = line.rpartition(" = ")
        value = value.split("  #", 1)[0]
        out.append((left.split(" [", 1)[0].strip(), complex(value.replace("+-", "-")).real))
    return out


class PaperCli(Workload):
    """In-process CLI invocations on the built-in d = 3 model."""

    name = "paper_cli"

    def __init__(self, seed: int):
        super().__init__(seed)
        inputs.params_check()
        self.outputs: dict[inputs.CliCall, tuple[int, str]] = {}
        self.ops = [Op(c.command, self._runner(c), self._checker(c)) for c in inputs.cli_inputs(seed)]

    @staticmethod
    def _runner(call: inputs.CliCall):
        overrides, options = dict(call.overrides), dict(call.options)

        def run():
            cfg = cli.parse_config(call.source, overrides)
            return cli.run_report(cfg, call.command, options)

        return run

    def _checker(self, call: inputs.CliCall):
        fmt = dict(call.overrides)["format"]

        def check(result):
            code, text = result
            allowed = (0, 4) if call.command in ("probs", "infer") else (0,)
            expect(code in allowed, f"{call.command} exited {code}")
            first = self.outputs.setdefault(call, result)
            expect(first == result, f"{call.command} output differs on repeat")
            if call.command == "paper-suite":
                last = _cli_values(text, fmt)[-1]
                expect(last == ("suite-mismatches", 0.0), f"paper-suite reported {last}")
            elif call.command == "sample":
                total = sum(v for _, v in _cli_values(text, fmt))
                expect(total == SAMPLES, f"sample counts sum to {total}")

        return check


def known_defects_open() -> int:
    """How many ROADMAP item-4 inputs still end outside the documented
    outcomes (exit 0, 2, 3 or 4)."""
    still_open = 0
    for command, keys, options in inputs.KNOWN_DEFECTS:
        try:
            cli.run_report(cli.parse_config("", keys), command, options)
        except cli.ConfigError:
            pass
        except ValueError:
            still_open += 1
    return still_open


# ---------------------------------------------------------------------------
# histories_scale

class HistoriesScale(Workload):
    """Consistency, Born weights, conditioning, inference, weak values and
    refinement on refine trees of 16 to 72 histories over d = 64."""

    name = "histories_scale"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inp = inputs.histories_inputs(seed)
        # Every op kind gets the same number of ops in a pass: one per tree
        # for the tree queries and `refine`, as many per dynamics for the
        # rest.  One more `refine` builds the complete family.
        for tf in self.inp.trees:
            self.ops += [self._consistency(tf), self._born(tf), self._conditional(tf), self._refine(tf)]
        per_dyn = len(self.inp.trees) // len(self.inp.dyns)
        for kind, dyn in self.inp.dyns.items():
            for _ in range(per_dyn):
                self.ops += [self._infer(kind, dyn), self._presence(dyn), self._weak_value(dyn)]
        self.ops.append(self._refine_complete())
        self.shuffle()

    def _consistency(self, tf):
        def check(report):
            expect(report.consistent == tf.consistent, f"{tf.kind} family verdict {report.consistent}")
        return Op("consistency_check", lambda: qh.consistency_check(tf.dyn, tf.family), check)

    def _born(self, tf):
        def run():
            try:
                return qh.born_probabilities(tf.dyn, tf.family)
            except qh.InconsistentFamilyError as err:
                return err

        def check(result):
            if not tf.consistent:
                expect(isinstance(result, qh.InconsistentFamilyError), "Haar family gave weights")
                return
            if not isinstance(result, dict):  # its repr is costly, so format it only here
                raise CheckFailed(f"decohering family raised {result!r}")
            got = np.array([result[h] for h in tf.family.histories])
            expect(np.allclose(got, tf.weights, rtol=0, atol=TOL), "weights differ from reference")
            expect(abs(got.sum() - 1.0) <= TOL, f"weights sum to {got.sum()!r}")

        return Op("born_probabilities", run, check)

    def _conditional(self, tf):
        times = sorted(tf.levels)
        t_cond = times[int(self.rng.integers(len(times)))]
        t_query = times[int(self.rng.integers(len(times)))]
        cond = tf.levels[t_cond][int(self.rng.integers(len(tf.levels[t_cond])))]
        query = tf.levels[t_query][int(self.rng.integers(len(tf.levels[t_query])))]
        hists = tf.family.histories
        in_cond = np.array([h.event_at(t_cond) is cond for h in hists])
        in_query = np.array([h.event_at(t_query) is query for h in hists])
        expected = tf.weights[in_cond & in_query].sum() / tf.weights[in_cond].sum()

        def run():
            try:
                return qh.conditional_probability(tf.dyn, tf.family, [(t_cond, cond)], [(t_query, query)])
            except qh.InconsistentFamilyError as err:
                return err

        def check(result):
            if not tf.consistent:
                expect(isinstance(result, qh.InconsistentFamilyError), "Haar family gave a probability")
                return
            expect(isinstance(result, float) and abs(result - expected) <= TOL,
                   f"conditional {result!r}, reference {expected!r}")

        return Op("conditional_probability", run, check)

    def _block_projector(self, slc, name):
        blocks = inputs.split_groups(self.rng, inputs.HIST_DIM // inputs.HIST_BLOCK, 2)[0]
        return qh.projector_from_labels(slc, inputs.channel_labels(slc, inputs.block_channels(blocks)), name)

    def _infer(self, kind, dyn):
        final = self._block_projector(dyn.slices[-1], "F")
        query = self._block_projector(dyn.slices[2], "Q")
        initial = inputs.random_state(self.rng, dyn.slices[0])
        t, t_final = query.slice.time_index, dyn.final_index
        fwd = inputs.forward(dyn, initial.amplitudes, 0, t)
        c_in = final.matrix @ inputs.forward(dyn, query.matrix @ fwd, t, t_final)
        c_out = final.matrix @ inputs.forward(dyn, fwd - query.matrix @ fwd, t, t_final)
        overlap = abs(np.vdot(c_in, c_out))
        if kind == "haar" and overlap < inputs.INCONSISTENT_MIN:
            raise AssertionError(f"Haar inference framework overlaps by only {overlap:.3g}")
        w_in, w_out = np.vdot(c_in, c_in).real, np.vdot(c_out, c_out).real
        expected = w_in / (w_in + w_out)

        def check(verdict):
            if kind == "haar":
                expect(isinstance(verdict, qh.Incommensurate), f"Haar inference gave {verdict!r}")
                return
            expect(isinstance(verdict, qh.Defined) and abs(verdict.probability - expected) <= TOL,
                   f"inference {verdict!r}, reference {expected!r}")

        return Op("infer", lambda: qh.infer(dyn, initial, final, query), check)

    def _reference_weak_value(self, dyn, initial, final, q):
        t = q.slice.time_index
        fwd = inputs.forward(dyn, initial.amplitudes, 0, t)
        bwd = final.amplitudes
        for st in reversed(dyn.steps[t:]):
            bwd = st.matrix.conj().T @ bwd
        return np.vdot(bwd, q.matrix @ fwd) / np.vdot(bwd, fwd)

    def _presence(self, dyn):
        initial = inputs.random_state(self.rng, dyn.slices[0])
        final = inputs.random_state(self.rng, dyn.slices[-1])
        channels = [self._block_projector(dyn.slices[t], f"W{t}.{i}") for t in (1, 2, 3) for i in range(2)]
        refs = [self._reference_weak_value(dyn, initial, final, q) for q in channels]

        def check(rows):
            expect(len(rows) == len(refs), "presence table length")
            for row, ref in zip(rows, refs):
                expect(abs(row.weak_value - ref) <= TOL * max(1.0, abs(ref)),
                       f"weak value {row.weak_value!r}, reference {ref!r}")

        return Op("presence_table", lambda: qh.presence_table(dyn, initial, final, channels), check)

    def _weak_value(self, dyn):
        initial = inputs.random_state(self.rng, dyn.slices[0])
        final = inputs.random_state(self.rng, dyn.slices[-1])
        q = self._block_projector(dyn.slices[int(self.rng.integers(1, 4))], "W")
        ref = self._reference_weak_value(dyn, initial, final, q)

        def check(wv):
            expect(abs(wv - ref) <= TOL * max(1.0, abs(ref)), f"weak value {wv!r}, reference {ref!r}")

        return Op("weak_value", lambda: qh.weak_value(dyn, initial, final, q), check)

    def _refine(self, tf):
        def check(fam):
            expect(len(fam.histories) == len(tf.family.histories), "refine tree size")
            expect(all(
                [p for _, p in a.events] == [p for _, p in b.events]
                for a, b in zip(fam.histories, tf.family.histories)
            ), "refine tree events")

        return Op("refine", tf.build, check)

    def _refine_complete(self):
        case = self.inp.complete

        def check(fam):
            expect(fam.complete and len(fam.histories) == case.n_histories, "complete family size")

        return Op("refine", lambda: inputs.grow_family(case.initial, case.levels, complete=True), check)


# ---------------------------------------------------------------------------
# probes_scale

def reference_joint(inp: inputs.ProbesInputs, probes) -> np.ndarray:
    """Particle-plus-probes amplitudes by direct numpy evolution."""
    dyn = inp.dyn
    n = len(probes)
    z, e = inp.strength.zeta, inp.strength.eta
    amps = np.zeros((dyn.slices[0].dim, 1 << n), dtype=complex)
    amps[:, 0] = inp.initial.amplitudes
    masks = np.arange(1 << n)
    for j, st in enumerate(dyn.steps):
        amps = st.matrix @ amps
        for bit, spec in enumerate(probes):
            for t, label in spec.couplings:
                if t != j + 1:
                    continue
                row = amps[dyn.slices[t].axis(label)]
                m0 = masks[(masks >> bit) & 1 == 0]
                m1 = m0 + (1 << bit)
                a0, a1 = row[m0].copy(), row[m1].copy()
                row[m0] = z * a0 - e * a1
                row[m1] = e * a0 + z * a1
    return amps


def _kappa(mask: int, probes) -> str:
    return "".join(p.probe_id for i, p in enumerate(probes) if mask >> i & 1) or "o"


class ProbesScale(Workload):
    """Probe evolution, branch decomposition, outcome statistics, support and
    sampling for 4 to 8 single-channel probes over d = 8."""

    name = "probes_scale"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inp = inputs.probes_inputs(seed)
        self.ops = [self._op(case) for case in self.inp.cases]
        self.shuffle()

    def _op(self, case):
        inp = self.inp
        ref = reference_joint(inp, case.probes)
        # the detectors are one channel each, so Pr(detector, kappa) is a
        # squared amplitude of the joint state
        labels = [_kappa(mask, case.probes) for mask in range(ref.shape[1])]
        ref_keys = [(part.name, label) for part in inp.detectors.parts for label in labels]
        ref_key_set = set(ref_keys)
        ref_probs = (np.abs(ref) ** 2).ravel()

        def run():
            js = qh.evolve_with_probes(inp.dyn, case.probes, inp.strength, inp.initial)
            branches = qh.branch_components(js)
            dist = qh.outcome_distribution(js, inp.detectors)
            support = qh.coincidence_support(dist)
            counts = qh.sample(dist, SAMPLES, case.sample_seed)
            return js, branches, dist, support, counts

        def check(result):
            js, branches, dist, support, counts = result
            expect(np.allclose(js.amplitudes, ref, rtol=0, atol=1e-12), "joint state differs from reference")
            kept = sum(b.phi.norm() ** 2 for b in branches)
            expect(abs(kept - 1.0) <= TOL, f"kept branches carry {kept!r}")
            expect(abs(dist.total() - 1.0) <= TOL, f"outcome distribution totals {dist.total()!r}")
            expect(dist.probs.keys() == ref_key_set, "outcome cells differ from reference")
            got = np.array([dist.probs[k] for k in ref_keys])
            expect(np.allclose(got, ref_probs, rtol=0, atol=1e-12), "outcome probabilities differ from reference")
            expect(all(dist.probs[(d, k)] > qh.DEFAULT_TOL for d, ks in support.items() for k in ks),
                   "support holds a negligible cell")
            expect(sum(counts.values()) == SAMPLES, f"sample counts sum to {sum(counts.values())}")
            expect(all(dist.probs[k] > 0 for k in counts), "sampled a zero-probability cell")

        return Op("probe_readout", run, check)


WORKLOADS = {w.name: w for w in (PaperCli, HistoriesScale, ProbesScale)}
