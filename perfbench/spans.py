"""Span tracing of the library from outside it.

`Tracer.install` wraps every public function of each qhistories module and
every value-object ``__post_init__``, and rebinds the wrapped functions
wherever another library module or a benchmark module imported them by
name (``histories.transport``, ``cli.consistency_check``, the package
namespace, ``inputs.refine``).  `Tracer.uninstall`
puts the originals back.  Spans (name, start, end, parent, op, sizes) are
kept in memory in flat arrays and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("statespace", "dynamics", "histories", "mzi", "weak", "probes", "cli")
HERE = Path(__file__).resolve().parent


def _importers() -> list:
    """The modules whose by-name imports of library functions get rebound:
    the qhistories package and its modules, and the benchmark's own."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "qhistories" or name.startswith("qhistories."):
            out.append(mod)
        elif getattr(mod, "__file__", None) and Path(mod.__file__).resolve().parent == HERE:
            out.append(mod)
    return out


QUERY_SPANS = (
    "histories.consistency_check",
    "histories.born_probabilities",
    "histories.conditional_probability",
    "histories.infer",
)


def _n_histories(args, kwargs, result):
    return len(args[1].histories)


def _transport_matvecs(args, kwargs, result):
    return abs(args[2] - args[1].slice.time_index)


def _coverage_dim(args, kwargs, result):
    fam = args[0]
    if not fam.complete:
        return 0
    dims = {t: p.slice.dim for h in fam.histories for t, p in h.events}
    return math.prod(dims.values())


def _branches(args, kwargs, result):
    return None if result is None else (len(result), 1 << len(args[0].probes))


#: Sizes computed from call arguments and results, recorded on the span as
#: one number or a pair.  The result is None when the call raised.
SIZES = {
    "dynamics.transport": _transport_matvecs,
    "histories.consistency_check": _n_histories,
    "histories.born_probabilities": _n_histories,
    "histories.conditional_probability": _n_histories,
    "histories.infer": lambda a, k, r: 2,
    "histories.Family.__post_init__": _coverage_dim,
    "probes.evolve_with_probes": lambda a, k, r: None if r is None else r.amplitudes.size,
    "probes.branch_components": _branches,
    "cli.render": lambda a, k, r: len(a[0]),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.size = array("d")
        self.size_b = array("d")
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def __len__(self) -> int:
        return len(self.name_id)

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        size_fn = SIZES.get(name)
        stack = self._stack
        name_id, start_a, end_a, parent_a = self.name_id, self.start, self.end, self.parent
        op_a, size_a, size_b = self.op_id, self.size, self.size_b
        nan = math.nan

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            op_a.append(self.op)
            end_a.append(nan)
            size_a.append(nan)
            size_b.append(nan)
            stack.append(idx)
            result = None
            start = time.perf_counter()
            start_a.append(start)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end_a[idx] = time.perf_counter()
                stack.pop()
                size = None if size_fn is None else size_fn(args, kwargs, result)
                if isinstance(size, tuple):
                    size_a[idx], size_b[idx] = size
                elif size is not None:
                    size_a[idx] = size

        return traced

    def install(self) -> None:
        if self._patches:
            return
        wrapped = {}
        for short in MODULES:
            mod = sys.modules[f"qhistories.{short}"]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    orig = vars(obj)["__post_init__"]
                    self._patches.append((obj, "__post_init__", orig))
                    setattr(obj, "__post_init__",
                            self._wrap(f"{short}.{attr}.__post_init__", orig))
        for mod in _importers():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_id, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.float64),
            "size_b": np.frombuffer(self.size_b, dtype=np.float64),
        }

    def write(self, path) -> None:
        """All spans as one compressed numpy archive; `names[name_id]` is a
        span's name and `parent` the index of its enclosing span (-1: none)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

#: Each self-time metric sums the self time of the spans it names.  Every
#: span the tracer opens is named in exactly one entry, so the metrics add
#: up to the traced time of the ops.
SELF_TIME = {
    "statespace.construct_ms": (
        "statespace.TimeSlice.__post_init__", "statespace.Ket.__post_init__",
        "statespace.Operator.__post_init__", "statespace.Projector.__post_init__",
        "statespace.PDI.__post_init__", "statespace.basis_ket", "statespace.identity_projector",
        "statespace.projector_from_labels", "statespace.projector_from_ket",
        "statespace.slice_pdi", "statespace.pdi_validate"),
    "statespace.inner_ms": ("statespace.inner",),
    "dynamics.construct_ms": ("dynamics.StepUnitary.__post_init__",
                              "dynamics.Dynamics.__post_init__", "dynamics.step_validate"),
    "dynamics.transport_ms": ("dynamics.transport",),
    "histories.chain_ket_ms": ("histories.chain_ket",),
    "histories.consistency_ms": ("histories.consistency_check",),
    "histories.born_ms": ("histories.born_probabilities",),
    "histories.conditional_ms": ("histories.conditional_probability",),
    "histories.infer_ms": ("histories.infer",),
    "histories.refine_ms": ("histories.refine", "histories.History.__post_init__",
                            "histories.Family.__post_init__"),
    "mzi.build_ms": ("mzi.build_nested_mzi", "mzi.build_no_bs34", "mzi.time_slices",
                     "mzi.source_ket", "mzi.BeamSplitterParams.__post_init__"),
    "mzi.named_family_ms": ("mzi.named_family",),
    "weak.weak_value_ms": ("weak.weak_value", "weak.two_state_vector", "weak.backward_state",
                           "weak.chain_weak_identity_residual",
                           "weak.TwoStateVector.__post_init__"),
    "weak.presence_table_ms": ("weak.presence_table",),
    "probes.construct_ms": ("probes.ProbeSpec.__post_init__", "probes.standard_probes",
                            "probes.ProbeStrength.__post_init__"),
    "probes.evolve_ms": ("probes.evolve_with_probes", "probes.JointState.__post_init__"),
    "probes.branch_components_ms": ("probes.branch_components",),
    "probes.outcome_distribution_ms": ("probes.outcome_distribution",
                                       "probes.OutcomeDistribution.__post_init__"),
    "probes.support_ms": ("probes.coincidence_support",),
    "probes.sample_ms": ("probes.sample",),
    "cli.parse_config_ms": ("cli.parse_config",),
    "cli.command_ms": ("cli.run_report", "cli.cmd_consistency", "cli.cmd_probs",
                       "cli.cmd_infer", "cli.cmd_weak_values", "cli.cmd_probes",
                       "cli.cmd_coincidences", "cli.cmd_sample", "cli.cmd_paper_suite",
                       "cli.main"),
    "cli.render_ms": ("cli.render",),
}

#: Span counts.
CALLS = {
    "statespace.kets_built": ("statespace.Ket.__post_init__",),
    "statespace.projectors_built": ("statespace.Projector.__post_init__",),
    "dynamics.transport_calls": ("dynamics.transport",),
    "histories.chain_ket_calls": ("histories.chain_ket",),
    "mzi.builds": ("mzi.build_nested_mzi", "mzi.build_no_bs34"),
    "weak.weak_value_calls": ("weak.weak_value",),
}

#: Sums of the sizes recorded on spans.
SIZE_SUMS = {
    "dynamics.step_matvecs": "dynamics.transport",
    "histories.coverage_dim": "histories.Family.__post_init__",
    "probes.joint_cells": "probes.evolve_with_probes",
    "cli.rows": "cli.render",
}


def layer_metrics(names: list[str], spans: dict[str, np.ndarray], n_ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of `n_ops` traced ops."""
    nid, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    self_ms = np.bincount(nid, weights=(duration - child) * 1e3, minlength=len(names))
    calls = np.bincount(nid, minlength=len(names))
    size = np.nan_to_num(spans["size"])
    sizes = np.bincount(nid, weights=size, minlength=len(names))
    ids = {name: i for i, name in enumerate(names)}

    def total(per_name, wanted):
        return float(sum(per_name[ids[n]] for n in wanted if n in ids))

    out = {m: total(self_ms, wanted) / n_ops for m, wanted in SELF_TIME.items()}
    out.update({m: total(calls, wanted) / n_ops for m, wanted in CALLS.items()})
    out.update({m: total(sizes, (name,)) / n_ops for m, name in SIZE_SUMS.items()})
    consist = nid == ids.get("histories.consistency_check", -1)
    out["histories.pair_overlaps"] = float(np.sum(size[consist] * (size[consist] - 1) / 2)) / n_ops
    out["histories.chain_kets_per_history"] = _chain_kets_per_history(names, spans)
    branch = nid == ids.get("probes.branch_components", -1)
    examined = float(np.nansum(spans["size_b"][branch]))
    out["probes.branches_kept_ratio"] = float(np.sum(size[branch])) / examined if examined else 0.0
    return out


def _chain_kets_per_history(names: list[str], spans: dict[str, np.ndarray]) -> float:
    """Chain kets built under outermost history queries, per history those
    queries asked about; 1.0 means each chain ket was built once."""
    nid, parent, size = spans["name_id"], spans["parent"], spans["size"]
    query_ids = {i for i, n in enumerate(names) if n in QUERY_SPANS}
    chain_id = names.index("histories.chain_ket") if "histories.chain_ket" in names else -1

    def outermost_query(i):
        top = -1
        while i >= 0:
            if nid[i] in query_ids:
                top = i
            i = parent[i]
        return top

    useful = 0.0
    for i in np.flatnonzero(np.isin(nid, list(query_ids))):
        if outermost_query(int(parent[i])) < 0:
            useful += size[i]
    built = sum(1 for i in np.flatnonzero(nid == chain_id) if outermost_query(int(parent[i])) >= 0)
    return built / useful if useful else 0.0
