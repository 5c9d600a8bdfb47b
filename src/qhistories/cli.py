"""Command-line front end: config ingestion, experiment commands, and
deterministic text/CSV reports.

Exit codes: 0 success, 2 configuration error, 3 reference-suite mismatch,
4 requested quantity meaningless (inconsistent family, or a condition or
post-selection of vanishing probability) -- a domain verdict, not a crash.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, fields

from .dynamics import Dynamics
from .histories import (
    Defined,
    Family,
    InconsistentFamilyError,
    VanishingProbabilityError,
    _conditional,
    born_probabilities,
    chain_ket,
    consistency_check,
    infer,
)
from .mzi import (
    BeamSplitterParams,
    NamedFamilyId,
    _DETECTORS,
    _FG_H,
    _family as _model_family,
    _label_projector,
    build_nested_mzi,
    named_family,
    source_ket,
)
from .probes import (
    JointState,
    ProbeStrength,
    _MAX_SAMPLES,
    _kappa_sort_key,
    branch_components,
    coincidence_support,
    evolve_with_probes,
    outcome_distribution,
    sample,
    standard_probes,
)
from .statespace import DEFAULT_TOL, _negligible, basis_ket, inner
from .weak import presence_table


class ConfigError(ValueError):
    """A configuration key is unknown, malformed, or out of range."""


@dataclass
class RunConfig:
    alpha2: float = 1.0 / 3.0
    epsilon: float = 1e-4
    probes: tuple[str, ...] = ("a", "d", "e", "w")
    family: str = "F_A"
    tolerance: float = DEFAULT_TOL
    seed: int = 12345
    samples: int = 1_000_000
    format: str = "text"


#: The configuration keys that can also be given as command-line flags.
_FLAG_KEYS = ("alpha2", "epsilon", "probes", "tolerance", "seed", "samples", "format")

#: Keys whose range is the one their model object enforces.
_MODEL_CHECKED = {"alpha2": BeamSplitterParams, "epsilon": ProbeStrength}


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: {raw!r} is not a number") from None


def _parse_int(key: str, raw: str, minimum: int, maximum: int | None = None) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"{key}: {raw!r} is not an integer") from None
    if val < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{key} must be <= {maximum}, got {val}")
    return val


def _family_id(raw: str) -> NamedFamilyId:
    try:
        return NamedFamilyId[raw.upper()]
    except KeyError:
        raise ConfigError(
            f"family: unknown id {raw!r}; choose from "
            f"{','.join(f.name for f in NamedFamilyId)}"
        ) from None


def _parse_key(cfg: dict, key: str, raw: str) -> None:
    raw = raw.strip()
    if key in _MODEL_CHECKED:
        val = _parse_float(key, raw)
        try:
            _MODEL_CHECKED[key](val)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        cfg[key] = val
    elif key == "probes":
        ids = [tok.strip() for tok in raw.split(",") if tok.strip()]
        try:
            cfg[key] = tuple(spec.probe_id for spec in standard_probes(ids))
        except ValueError as err:
            raise ConfigError(str(err)) from None
    elif key == "family":
        cfg[key] = _family_id(raw).name
    elif key == "tolerance":
        val = _parse_float(key, raw)
        if not 0.0 <= val < 1.0:
            raise ConfigError(f"tolerance must lie in [0.0, 1.0), got {raw}")
        cfg[key] = val
    elif key == "seed":
        cfg[key] = _parse_int(key, raw, 0)
    elif key == "samples":
        cfg[key] = _parse_int(key, raw, 1, _MAX_SAMPLES)
    elif key == "format":
        if raw not in ("text", "csv"):
            raise ConfigError(f"format must be 'text' or 'csv', got {raw!r}")
        cfg[key] = raw
    else:
        known = ", ".join(f.name for f in fields(RunConfig))
        raise ConfigError(f"unknown configuration key {key!r} (known: {known})")


def parse_config(source: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Build a RunConfig from key=value lines plus flag overrides.

    `#` starts a comment; blank lines are skipped; unknown keys are
    rejected; flags win over file values; defaults fill the rest.
    """
    cfg: dict = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {body!r}")
        key, raw = body.split("=", 1)
        _parse_key(cfg, key.strip(), raw)
    for key, raw in (overrides or {}).items():
        if raw is not None:
            _parse_key(cfg, key, raw)
    return RunConfig(**cfg)


# ---------------------------------------------------------------------------
# report rows and rendering

@dataclass
class Row:
    quantity: str
    condition: str
    value: complex
    tag: str = ""


def _fmt_real(x: float) -> str:
    return f"{x:.12g}"


def _fmt_value(v: complex) -> str:
    v = complex(v)
    if v.imag == 0.0:
        return _fmt_real(v.real)
    sign = "+" if v.imag >= 0 else "-"
    return f"{_fmt_real(v.real)}{sign}{_fmt_real(abs(v.imag))}j"


def render(rows: list[Row], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["quantity", "condition", "value_re", "value_im", "provenance_eq"])
        for r in rows:
            v = complex(r.value)
            writer.writerow([r.quantity, r.condition, repr(v.real), repr(v.imag), r.tag])
        return buf.getvalue()
    lefts = [r.quantity + (f" [{r.condition}]" if r.condition else "") for r in rows]
    width = max((len(s) for s in lefts), default=0)
    lines = []
    for left, r in zip(lefts, rows):
        line = f"{left:<{width}} = {_fmt_value(r.value)}"
        if r.tag:
            line += f"  # {r.tag}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def _family(cfg: RunConfig, name: str | None) -> tuple[str, Dynamics, Family]:
    fid = _family_id(name or cfg.family)
    dyn, fam = named_family(fid, BeamSplitterParams(cfg.alpha2))
    return fid.name, dyn, fam


def _cond(cfg: RunConfig, **extra) -> str:
    parts = [f"alpha2={_fmt_real(cfg.alpha2)}"]
    parts += [f"{k}={v}" for k, v in extra.items()]
    return ",".join(parts)


def _probe_cond(cfg: RunConfig, epsilon: float, probe_ids: tuple[str, ...], **extra) -> str:
    return _cond(cfg, eps=_fmt_real(epsilon), probes="".join(probe_ids), **extra)


def cmd_consistency(cfg: RunConfig, family: str | None) -> tuple[int, list[Row]]:
    fam_name, dyn, fam = _family(cfg, family)
    rep = consistency_check(dyn, fam)
    verdict = "consistent" if rep.consistent else "inconsistent"
    rows = [Row(f"consistency({fam_name})", _cond(cfg, verdict=verdict), rep.max_overlap)]
    for i, j, ip in rep.offending_pairs:
        rows.append(Row(f"overlap({i},{j})", _cond(cfg), ip))
    return 0, rows


def cmd_probs(cfg: RunConfig, family: str | None) -> tuple[int, list[Row]]:
    fam_name, dyn, fam = _family(cfg, family)
    try:
        weights = born_probabilities(dyn, fam)
    except InconsistentFamilyError as err:
        row = Row(
            f"probs({fam_name})",
            _cond(cfg, verdict="meaningless-inconsistent-family"),
            err.report.max_overlap,
        )
        return 4, [row]
    rows = [
        Row(f"Pr({h.label()}|{fam.initial.name})", _cond(cfg), w)
        for h, w in weights.items()
    ]
    rows.append(Row("total", _cond(cfg), sum(weights.values())))
    return 0, rows


def _parse_time(token: str) -> int:
    tok = token.lower().removeprefix("t")
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"bad time index {token!r}; use e.g. t2 or 2") from None


def _parse_channels(dyn: Dynamics, t: int, text: str) -> set[str]:
    slc = dyn.slices[t]
    labels = set()
    for tok in text.split("+"):
        tok = tok.strip()
        if tok not in slc.basis and tok.endswith(str(t)) and tok[: -len(str(t))] in slc.basis:
            tok = tok[: -len(str(t))]
        if tok not in slc.basis:
            raise ConfigError(f"channel {tok!r} is not on slice {slc}")
        labels.add(tok)
    return labels


def cmd_infer(cfg: RunConfig, time_token: str, channels: str, given: str) -> tuple[int, list[Row]]:
    dyn = build_nested_mzi(BeamSplitterParams(cfg.alpha2))
    t = _parse_time(time_token)
    t_final = dyn.final_index
    if not 0 < t < t_final:
        raise ConfigError(f"query time t{t} must lie strictly between t0 and t{t_final}")
    query = _label_projector(t, _parse_channels(dyn, t, channels))
    final = _label_projector(t_final, _parse_channels(dyn, t_final, given))
    s0 = source_ket(dyn)
    verdict = infer(dyn, s0, final, query)
    quantity = f"Pr({query.name}|{s0.name},{final.name})"
    if isinstance(verdict, Defined):
        return 0, [Row(quantity, _cond(cfg, verdict="Defined"), verdict.probability)]
    return 4, [
        Row(
            quantity,
            _cond(cfg, verdict="Incommensurate"),
            verdict.report.max_overlap,
        )
    ]


def cmd_weak_values(cfg: RunConfig) -> tuple[int, list[Row]]:
    dyn = build_nested_mzi(BeamSplitterParams(cfg.alpha2))
    s0 = source_ket(dyn)
    f4 = basis_ket(dyn.slices[4], "F")
    channels = [_label_projector(t, lab) for t in (1, 2, 3) for lab in dyn.slices[t].basis]
    rows = [
        Row(
            f"wv({entry.name})",
            _cond(cfg, tsvf=entry.tsvf.value, ch=entry.ch.value),
            entry.weak_value,
        )
        for entry in presence_table(dyn, s0, f4, channels)
    ]
    return 0, rows


def _joint_state(cfg: RunConfig) -> JointState:
    dyn = build_nested_mzi(BeamSplitterParams(cfg.alpha2))
    return evolve_with_probes(
        dyn, standard_probes(cfg.probes), ProbeStrength(cfg.epsilon), source_ket(dyn)
    )


def cmd_probes(cfg: RunConfig) -> tuple[int, list[Row]]:
    js = _joint_state(cfg)
    cond = _probe_cond(cfg, cfg.epsilon, cfg.probes)
    rows = []
    for branch in branch_components(js):
        rows.append(Row(f"norm2[{branch.kappa}]", cond, branch.phi.norm() ** 2))
        for lab in js.slice.basis:
            amp = branch.phi.amplitude(lab)
            if not _negligible(abs(amp), "amplitude"):
                rows.append(Row(f"amp[{branch.kappa}].{lab}", cond, amp))
    return 0, rows


def cmd_coincidences(cfg: RunConfig) -> tuple[int, list[Row]]:
    js = _joint_state(cfg)
    dist = outcome_distribution(js, _DETECTORS)
    support = coincidence_support(dist)
    cond = _probe_cond(cfg, cfg.epsilon, cfg.probes)
    rows = []
    for det in dist.detectors():
        kappas = sorted(support[det], key=_kappa_sort_key)
        rows.append(Row(f"support({det})", f"{cond}:{','.join(kappas)}", len(kappas)))
    fg = sorted(support["F4"] | support["G4"], key=_kappa_sort_key)
    rows.append(Row("support(F4+G4)", f"{cond}:{','.join(fg)}", len(fg)))
    return 0, rows


def cmd_sample(cfg: RunConfig) -> tuple[int, list[Row]]:
    js = _joint_state(cfg)
    dist = outcome_distribution(js, _DETECTORS)
    counts = sample(dist, cfg.samples, cfg.seed)
    cond = _probe_cond(cfg, cfg.epsilon, cfg.probes, n=cfg.samples, seed=cfg.seed)
    rows = [
        Row(f"count({det},{kappa})", cond, float(counts[(det, kappa)]))
        for det, kappa in sorted(counts, key=lambda dk: (dk[0], _kappa_sort_key(dk[1])))
    ]
    return 0, rows


# ---------------------------------------------------------------------------
# the built-in closed-form reference suite

def _expected_branches(a: float, b: float, z: float, e: float):
    """Closed-form branch amplitudes over the final basis (F, G, H) of the
    probe sets a,d,e,w (eq30) and a,d,b,c,e (eq33), from the splitter
    amplitudes (a, b) and the probe amplitudes (zeta, eta)."""
    abar = {"F": a * a, "G": a * b}  # straight-arm image at the output
    ebar = {"F": b, "G": -a}  # inner-loop E image at the output

    def scale(vec, factor):
        return {k: factor * v for k, v in vec.items()}

    shared = {"o": scale(abar, z) | {"H": z * z * b}, "a": scale(abar, e), "d": {"H": z * e * b}}
    half = 0.5 * z * e * b
    eq30 = shared | {"w": {"H": z * e * b}, "dw": {"H": e * e * b}}
    eq33 = shared | {
        "b": scale(ebar, -half * z) | {"H": half},
        "c": scale(ebar, half * z) | {"H": half},
        "db": scale(ebar, -half * e) | {"H": half * e / z},
        "dc": scale(ebar, half * e) | {"H": half * e / z},
        "be": scale(ebar, -0.5 * z * e * e * b),
        "ce": scale(ebar, 0.5 * z * e * e * b),
        "dbe": scale(ebar, -0.5 * e * e * e * b),
        "dce": scale(ebar, 0.5 * e * e * e * b),
    }
    return eq30, eq33


def _branch_rows(js: JointState, cond: str, expected: dict, tag: str):
    """One probe readout's branch-set row, then each closed-form amplitude
    beside the amplitude read (0.0 for a branch not kept)."""
    branches = {br.kappa: br.phi for br in branch_components(js)}
    ids = ",".join(spec.probe_id for spec in js.probes)
    yield f"branch-set({ids})", cond, float(set(branches) == set(expected)), 1.0, tag
    for kappa, amps in expected.items():
        got = branches.get(kappa)
        for lab, ref in amps.items():
            value = got.amplitude(lab) if got is not None else 0.0
            yield f"amp[{kappa}].{lab}", cond, value, ref, tag


def _suite(cfg: RunConfig, dyn: Dynamics):
    """Every paper-suite row in report order, as (quantity, condition,
    value, closed form, tag), each closed form beside the reading it checks.
    Each family is walked once, and its conditionals reuse its Born weights.
    Only the eq23 rows, at the fixed ratio 1/3, read a model of their own."""
    p = BeamSplitterParams(cfg.alpha2)
    a2, b2 = p.alpha2, p.beta2
    strength = ProbeStrength(cfg.epsilon)
    cond = _cond(cfg)
    s0 = source_ket(dyn)
    f4 = _label_projector(4, "F")
    f4_ket = basis_ket(dyn.slices[4], "F")

    fam = _model_family(dyn, NamedFamilyId.EQ8_FULL)
    weights = born_probabilities(dyn, fam)
    hists = fam.histories
    for h, ref in zip(hists, (a2 * a2, 0.0, b2 + a2 * b2)):
        yield f"Pr({h.label()}|S0)", cond, weights[h], ref, "eq10"
    yield "Pr(F4|S0)", cond, weights[hists[0]] + weights[hists[1]], a2 * a2, "eq11"
    pr = _conditional(fam, weights, [(4, f4)], [(2, _label_projector(2, "A"))])
    yield "Pr(A2|S0,F4)", cond, pr, 1.0, "eq11"

    fam = _model_family(dyn, NamedFamilyId.F_A_PRIME)
    yield "histories(F_A_PRIME)", cond, float(len(fam.histories)), 18.0, "eq16"
    query = [(t, _label_projector(t, "A")) for t in (1, 2, 3)]
    pr = _conditional(fam, born_probabilities(dyn, fam), [(4, f4)], query)
    yield "Pr(A1,A2,A3|S0,F4)", cond, pr, 1.0, "eq16"

    for fid, labels, refs, tag in (
        (NamedFamilyId.F_B, ("B2", "A2+C2"), (-b2 / 2, a2 + b2 / 2), "eq18"),
        (NamedFamilyId.F_C, ("C2", "A2+B2"), (b2 / 2, a2 - b2 / 2), "eq21"),
    ):
        fam = _model_family(dyn, fid)
        for h, label, ref in zip(fam.histories, labels, refs):
            coeff = inner(f4_ket, chain_ket(dyn, fam.initial, h))
            yield f"<F4|chain({label},F4)>", cond, coeff, ref, tag

    dyn3 = build_nested_mzi(BeamSplitterParams(1.0 / 3.0))
    fam = _model_family(dyn3, NamedFamilyId.F_C)
    weights = born_probabilities(dyn3, fam)
    yield "Pr(F4|S0)", "alpha2=1/3", sum(weights.values()), 1.0 / 9.0, "eq23"
    yield "Pr(C2,F4|S0)", "alpha2=1/3", weights[fam.histories[0]], 1.0 / 9.0, "eq23"
    pr = _conditional(fam, weights, [(4, f4)], [(2, _label_projector(2, "C"))])
    yield "Pr(C2|S0,F4)", "alpha2=1/3", pr, 1.0, "eq23"

    eq30, eq33 = _expected_branches(p.alpha, p.beta, strength.zeta, strength.eta)
    probe_cond = _probe_cond(cfg, cfg.epsilon, "adew")
    js = evolve_with_probes(dyn, standard_probes("adew"), strength, s0)
    yield from _branch_rows(js, probe_cond, eq30, "eq30")
    dist = outcome_distribution(js, _DETECTORS)
    yield "Pr(F4,a)", probe_cond, dist.p("F4", "a"), cfg.epsilon * a2 * a2, "eq32"
    yield "Pr(F4,o)", probe_cond, dist.p("F4", "o"), (1 - cfg.epsilon) * a2 * a2, "eq32"
    yield "Pr(F4)", probe_cond, dist.detector_marginal("F4"), a2 * a2, "eq32"
    yield "Pr(a|F4)", probe_cond, dist.given_detector("F4")["a"], cfg.epsilon, "eq32"

    probe_cond = _probe_cond(cfg, cfg.epsilon, "adbce")
    js = evolve_with_probes(dyn, standard_probes("adbce"), strength, s0)
    yield from _branch_rows(js, probe_cond, eq33, "eq33")

    # The support lists need every multi-probe pattern to sit above the
    # support threshold, so they are pinned at a resolvable strength.
    probe_cond = _probe_cond(cfg, 1e-2, "adbce")
    js = evolve_with_probes(dyn, standard_probes("adbce"), ProbeStrength(1e-2), s0)
    support = coincidence_support(outcome_distribution(js, _FG_H))
    h4 = {"o", "d", "b", "c", "db", "dc"}
    fg4 = {"o", "a", "b", "c", "db", "dc", "be", "ce", "dbe", "dce"}
    yield "support(H4)", probe_cond, float(support["H4"] == h4), 1.0, "eq35"
    yield "support(F4+G4)", probe_cond, float(support["F4+G4"] == fg4), 1.0, "eq35"

    wv_c2 = b2 / (2 * a2)
    channels = [_label_projector(2, lab) for lab in "ABC"]
    for entry, ref in zip(presence_table(dyn, s0, f4_ket, channels), (1.0, -wv_c2, wv_c2)):
        yield f"wv({entry.name})", cond, entry.weak_value, ref, "eq38"


def cmd_paper_suite(cfg: RunConfig) -> tuple[int, list[Row]]:
    """Compare each `_suite` row, read from the one model built here, with
    its closed form; exit 3 on a deviation beyond `cfg.tolerance`, whose
    only use this is."""
    dyn = build_nested_mzi(BeamSplitterParams(cfg.alpha2))
    rows, mismatches = [], []
    for quantity, condition, value, ref, tag in _suite(cfg, dyn):
        rows.append(Row(quantity, condition, value, tag))
        if abs(complex(value) - complex(ref)) > cfg.tolerance:
            mismatches.append(quantity)
    rows.append(Row("suite-mismatches", ";".join(mismatches), float(len(mismatches))))
    return (3 if mismatches else 0), rows


_FAMILY_ARG = {"family": dict(nargs="?", help="named family id (default from config)")}
_INFER_ARGS = {
    "time": dict(help="time index, e.g. t2"),
    "channels": dict(help="channel labels joined by '+', e.g. C or B+C"),
    "--given": dict(required=True, help="final channel, e.g. F"),
}

#: Every command: its handler, called with the config and the parsed
#: options, and its own arguments.  A handler ignores options it does not
#: take, and looks its `cmd_*` function up when it runs.
_COMMANDS = {
    "consistency": (lambda cfg, o: cmd_consistency(cfg, o.get("family")), _FAMILY_ARG),
    "probs": (lambda cfg, o: cmd_probs(cfg, o.get("family")), _FAMILY_ARG),
    "infer": (
        lambda cfg, o: cmd_infer(cfg, o["time"], o["channels"], o["given"]),
        _INFER_ARGS,
    ),
    "weak-values": (lambda cfg, o: cmd_weak_values(cfg), {}),
    "probes": (lambda cfg, o: cmd_probes(cfg), {}),
    "coincidences": (lambda cfg, o: cmd_coincidences(cfg), {}),
    "sample": (lambda cfg, o: cmd_sample(cfg), {}),
    "paper-suite": (lambda cfg, o: cmd_paper_suite(cfg), {}),
}


def run_report(cfg: RunConfig, command: str, options: dict | None = None) -> tuple[int, str]:
    """Execute one command and render its report; returns (exit code, text)."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    try:
        code, rows = _COMMANDS[command][0](cfg, options or {})
    except VanishingProbabilityError as err:
        verdict = "meaningless-vanishing-probability"
        code, rows = 4, [Row(command, _cond(cfg, verdict=verdict), err.probability)]
    return code, render(rows, cfg.format)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file ('#' comments)")
    for key in _FLAG_KEYS:
        common.add_argument(f"--{key}")

    parser = argparse.ArgumentParser(
        prog="qhistories",
        description="History-family analysis of the built-in nested interferometer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for arg, kwargs in arguments.items():
            p.add_argument(arg, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        source = ""
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                source = fh.read()
        cfg = parse_config(source, {key: getattr(args, key) for key in _FLAG_KEYS})
        code, body = run_report(cfg, args.command, vars(args))
    except (ConfigError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(body)
    return code


if __name__ == "__main__":
    sys.exit(main())
