import contextlib
import csv
import io
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import ALPHA2 as GOLDEN_ALPHA2
from test_golden import cases, run

from qhistories.cli import ConfigError, Row, RunConfig, _suite, main, parse_config, render, run_report
from qhistories.histories import conditional_probability
from qhistories.mzi import BeamSplitterParams, NamedFamilyId, build_nested_mzi, named_family
from qhistories.probes import BUILTIN_ORDER
from qhistories.statespace import projector_from_labels


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.alpha2 == pytest.approx(1 / 3)
        assert cfg.epsilon == pytest.approx(1e-4)
        assert cfg.tolerance == 1e-10
        assert cfg.format == "text"
        assert cfg.probes == ("a", "d", "e", "w")

    def test_file_values_with_comments(self):
        cfg = parse_config(
            """
            # splitting ratio
            alpha2 = 0.3333333333
            seed = 42   # rng
            probes = a,d,w
            """
        )
        assert cfg.alpha2 == pytest.approx(1 / 3, abs=1e-9)
        assert cfg.seed == 42
        assert cfg.probes == ("a", "d", "w")

    def test_flags_override_file(self):
        cfg = parse_config("alpha2 = 0.25", {"alpha2": "0.5"})
        assert cfg.alpha2 == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'alpha'"):
            parse_config("alpha = 0.3")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("alpha2 0.3")

    def test_degenerate_ratio_rejected_with_constraint(self):
        with pytest.raises(ConfigError, match="0 < alpha2 < 1"):
            parse_config("alpha2 = 1.0")

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config("epsilon = 1.0")
        assert parse_config("epsilon = 0").epsilon == 0.0

    def test_unknown_probe_rejected(self):
        with pytest.raises(ConfigError, match="unknown probe ids"):
            parse_config("probes = a,z")

    def test_probes_canonical_order(self):
        assert parse_config("probes = w,c,a").probes == ("a", "c", "w")

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("format = json")

    def test_bad_family_rejected(self):
        with pytest.raises(ConfigError, match="family"):
            parse_config("family = F_X")

    def test_family_case_insensitive(self):
        assert parse_config("family = f_c").family == "F_C"


class TestCommands:
    def test_consistency_reports_overlap(self):
        cfg = parse_config("alpha2 = 0.25")
        code, body = run_report(cfg, "consistency", {"family": "F_C"})
        assert code == 0
        assert "inconsistent" in body
        assert "0.046875" in body

    def test_consistency_of_consistent_family(self):
        cfg = parse_config("")
        code, body = run_report(cfg, "consistency", {"family": "F_A"})
        assert code == 0
        assert "verdict=consistent" in body

    def test_family_falls_back_to_config(self):
        cfg = parse_config("family = F_C\nalpha2 = 0.25")
        code, body = run_report(cfg, "consistency", {})
        assert code == 0
        assert "consistency(F_C)" in body and "inconsistent" in body

    def test_probs_meaningless_on_inconsistent_family(self):
        cfg = parse_config("")
        code, body = run_report(cfg, "probs", {"family": "F_B"})
        assert code == 4
        assert "meaningless" in body

    def test_probs_lists_weights_and_total(self):
        cfg = parse_config("alpha2 = 0.5")
        code, body = run_report(cfg, "probs", {"family": "EQ8_FULL"})
        assert code == 0
        assert "Pr(A2,F4|S0)" in body
        assert "total" in body
        assert "0.25" in body

    def test_infer_defined_at_special_ratio(self):
        cfg = parse_config("")
        code, body = run_report(
            cfg, "infer", {"time": "t2", "channels": "C", "given": "F"}
        )
        assert code == 0
        assert "verdict=Defined" in body
        assert body.rstrip().endswith("= 1")

    def test_infer_incommensurate_off_ratio(self):
        cfg = parse_config("alpha2 = 0.25")
        code, body = run_report(
            cfg, "infer", {"time": "2", "channels": "C", "given": "F"}
        )
        assert code == 4
        assert "verdict=Incommensurate" in body

    def test_infer_accepts_label_sums(self):
        cfg = parse_config("alpha2 = 0.7")
        code, body = run_report(
            cfg, "infer", {"time": "t2", "channels": "B+C", "given": "F"}
        )
        assert code == 0
        assert "verdict=Defined" in body
        assert body.rstrip().endswith("= 0")

    def test_infer_rejects_unknown_channel(self):
        cfg = parse_config("")
        with pytest.raises(ConfigError, match="not on slice"):
            run_report(cfg, "infer", {"time": "t2", "channels": "E", "given": "F"})

    def test_weak_values_at_special_ratio(self):
        cfg = parse_config("")
        code, body = run_report(cfg, "weak-values", {})
        assert code == 0
        lines = {line.split(" ")[0]: line for line in body.splitlines()}
        assert lines["wv(A2)"].rstrip().endswith("= 1")
        assert lines["wv(B2)"].rstrip().endswith("= -1")
        assert lines["wv(C2)"].rstrip().endswith("= 1")
        assert "ch=meaningless" in lines["wv(B2)"]

    def test_probes_command_lists_branches(self):
        cfg = parse_config("probes = a,d,e,w\nepsilon = 0.01")
        code, body = run_report(cfg, "probes", {})
        assert code == 0
        for kappa in ("o", "a", "d", "w", "dw"):
            assert f"norm2[{kappa}]" in body

    def test_coincidences_command_lists_supports(self):
        cfg = parse_config("probes = a,d,b,c,e\nepsilon = 0.01")
        code, body = run_report(cfg, "coincidences", {})
        assert code == 0
        assert "support(H4)" in body
        assert "o,d,b,c,db,dc" in body
        assert "o,a,b,c,db,dc,be,ce,dbe,dce" in body

    def test_sample_deterministic_for_fixed_seed(self):
        cfg = parse_config("samples = 20000\nseed = 5")
        out1 = run_report(cfg, "sample", {})
        out2 = run_report(cfg, "sample", {})
        assert out1 == out2

    def test_byte_identical_reports(self):
        cfg = parse_config("alpha2 = 0.42\nepsilon = 0.01")
        for command in ("consistency", "probs", "weak-values", "probes", "coincidences"):
            a = run_report(cfg, command, {"family": "F_A"})
            b = run_report(cfg, command, {"family": "F_A"})
            assert a == b

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="unknown command"):
            run_report(RunConfig(), "frobnicate", {})


class TestCsvFormat:
    def test_schema_and_roundtrip(self):
        cfg = parse_config("format = csv\nalpha2 = 0.25")
        code, body = run_report(cfg, "consistency", {"family": "F_C"})
        assert code == 0
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == ["quantity", "condition", "value_re", "value_im", "provenance_eq"]
        data = rows[1]
        assert data[0] == "consistency(F_C)"
        assert float(data[2]) == pytest.approx(0.046875, abs=1e-15)

    def test_suite_rows_carry_tags(self):
        cfg = parse_config("format = csv")
        code, body = run_report(cfg, "paper-suite", {})
        assert code == 0
        rows = list(csv.reader(io.StringIO(body)))[1:]
        tags = {r[4] for r in rows if r[4]}
        assert tags == {
            "eq10", "eq11", "eq16", "eq18", "eq21", "eq23",
            "eq30", "eq32", "eq33", "eq35", "eq38",
        }
        # full-precision values round-trip through repr
        for r in rows:
            float(r[2]), float(r[3])

    def test_complex_values_render_as_text_and_csv(self):
        # the built-in model is real, so no CLI input reaches a complex value
        row = Row("wv(X)", "alpha2=0.5", 0.5 - 0.25j)
        assert render([row], "text") == "wv(X) [alpha2=0.5] = 0.5-0.25j\n"
        assert render([row], "csv").splitlines()[1] == "wv(X),alpha2=0.5,0.5,-0.25,"
        # an imaginary part of -0.0 is zero: the text shows a real
        row = Row("wv(X)", "alpha2=0.5", complex(0.5, -0.0))
        assert render([row], "text") == "wv(X) [alpha2=0.5] = 0.5\n"
        assert render([row], "csv").splitlines()[1] == "wv(X),alpha2=0.5,0.5,-0.0,"


class TestSuite:
    @pytest.mark.parametrize("alpha2", ["0.3333333333333333", "0.42", "0.8"])
    def test_passes_at_any_ratio(self, alpha2):
        cfg = parse_config("", {"alpha2": alpha2})
        code, body = run_report(cfg, "paper-suite", {})
        assert code == 0, body
        assert "suite-mismatches" in body

    def test_builds_the_model_twice(self, monkeypatch):
        # once at the configured ratio for every block, once for eq23 at 1/3
        import qhistories.cli as cli

        calls = []
        real = cli.build_nested_mzi

        def counting(p):
            calls.append(p.alpha2)
            return real(p)

        monkeypatch.setattr(cli, "build_nested_mzi", counting)
        code, _ = run_report(parse_config("", {"alpha2": "0.42"}), "paper-suite", {})
        assert code == 0
        assert calls == [0.42, 1.0 / 3.0]

    def test_walks_each_family_once(self, monkeypatch):
        # EQ8_FULL, F_A_PRIME and F_C at 1/3: each conditional reuses the
        # Born weights of its family's one walk
        import qhistories.histories as histories

        walks = []
        real = histories._decoherence

        def counting(dyn, fam):
            walks.append(len(fam.histories))
            return real(dyn, fam)

        monkeypatch.setattr(histories, "_decoherence", counting)
        code, _ = run_report(parse_config("", {"alpha2": "0.42"}), "paper-suite", {})
        assert code == 0
        assert walks == [3, 18, 2]

    @pytest.mark.parametrize("alpha2", GOLDEN_ALPHA2)
    def test_reused_weights_give_the_library_conditionals(self, alpha2):
        cfg = parse_config("", {"alpha2": alpha2})
        dyn = build_nested_mzi(BeamSplitterParams(cfg.alpha2))
        values = {q: v for q, _, v, _, _ in _suite(cfg, dyn)}
        for fid, a2, times, channel, got in (
            (NamedFamilyId.EQ8_FULL, cfg.alpha2, (2,), "A", values["Pr(A2|S0,F4)"]),
            (NamedFamilyId.F_A_PRIME, cfg.alpha2, (1, 2, 3), "A", values["Pr(A1,A2,A3|S0,F4)"]),
            (NamedFamilyId.F_C, 1.0 / 3.0, (2,), "C", values["Pr(C2|S0,F4)"]),
        ):
            dyn, fam = named_family(fid, BeamSplitterParams(a2))
            want = conditional_probability(
                dyn,
                fam,
                [(4, projector_from_labels(dyn.slices[4], {"F"}))],
                [(t, projector_from_labels(dyn.slices[t], {channel})) for t in times],
            )
            assert got.hex() == want.hex()

    def test_zero_tolerance_trips_mismatch_exit(self):
        cfg = parse_config("tolerance = 0")
        code, body = run_report(cfg, "paper-suite", {})
        assert code == 3

    @pytest.mark.parametrize("tolerance", ["1e-6", "0.5"])
    def test_loose_tolerance_only_loosens_the_comparison(self, tolerance):
        # the branch sets, supports and vanishing-mass checks keep the
        # library's cut-off, so a looser comparison cannot add a mismatch
        cfg = parse_config("", {"tolerance": tolerance})
        code, body = run_report(cfg, "paper-suite", {})
        assert code == 0, body
        last = body.rstrip().splitlines()[-1]
        assert last.startswith("suite-mismatches ") and last.endswith("= 0")


#: The golden command lines of every command but `paper-suite`, at two ratios.
_VERDICT_CASES = [
    argv
    for argv in cases()
    if argv[0] != "paper-suite"
    and argv[argv.index("--alpha2") + 1] in ("0.25", "0.3333333333333333")
]


@pytest.mark.parametrize("command", sorted({argv[0] for argv in _VERDICT_CASES}))
def test_tolerance_changes_no_report_but_the_suite(command):
    changed = []
    for argv in _VERDICT_CASES:
        if argv[0] != command:
            continue
        want = run(argv)
        for tolerance in _TOLERANCE:
            got = run([*argv, "--tolerance", tolerance])
            if (got["exit"], got["stdout"]) != (want["exit"], want["stdout"]):
                changed.append(" ".join(got["argv"]))
    assert not changed, f"{len(changed)} reports changed, first: {changed[0]}"


class TestMain:
    def test_config_file_and_override(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("alpha2 = 0.25\nformat = text\n")
        code = main(["consistency", "F_C", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.046875" in out
        code = main(
            ["consistency", "F_C", "--config", str(path), "--alpha2", "0.3333333333333333"]
        )
        out = capsys.readouterr().out
        assert "verdict=consistent" in out

    def test_bad_config_exits_2(self, capsys):
        code = main(["probs", "F_A", "--alpha2", "1.0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "0 < alpha2 < 1" in err

    def test_missing_config_file_exits_2(self, capsys):
        code = main(["probs", "F_A", "--config", "/nonexistent/path.cfg"])
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed = x", "seed: 'x' is not an integer"),
            ("seed = -1", "seed must be >= 0, got -1"),
            ("samples = 0", "samples must be >= 1, got 0"),
            ("samples = 9223372036854775808", "samples must be <= 9223372036854775807"),
            ("tolerance = 1", "tolerance must lie in [0.0, 1.0), got 1"),
        ],
    )
    def test_out_of_range_config_value_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        code = main(["sample", "--config", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {message}")

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfe")
        code = main(["probs", "F_A", "--config", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_sample_count_above_int64_exits_2(self, capsys):
        assert main(["sample", "--samples", "9223372036854775807", "--seed", "3"]) == 0
        capsys.readouterr()
        code = main(["sample", "--samples", "9223372036854775808"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: samples must be <= 9223372036854775807")

    def test_infer_reads_time_suffixed_channel_labels(self):
        plain = run(["infer", "t2", "C", "--given", "F"])
        suffixed = run(["infer", "t2", "C2", "--given", "F4"])
        assert (suffixed["exit"], suffixed["stdout"]) == (plain["exit"], plain["stdout"])
        assert plain["exit"] == 0

    def test_infer_bad_time_token_exits_2(self, capsys):
        # a token carries at most one "t": "tt2" is not "t2"
        for token in ("tx", "tt2", "ttt2"):
            code = main(["infer", token, "C", "--given", "F"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith(f"error: bad time index {token!r}")

    @pytest.mark.parametrize(
        "time, channels", [("t0", "S"), ("t4", "F"), ("t5", "A"), ("t-1", "A")]
    )
    def test_infer_query_time_outside_interior_exits_2(self, capsys, time, channels):
        code = main(["infer", time, channels, "--given", "F"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: query time")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, verdict",
        [
            (["probs", "F_B"], "meaningless-inconsistent-family"),
            (["paper-suite", "--alpha2", "1e-6"], "meaningless-vanishing-probability"),
            (["weak-values", "--alpha2", "1e-12"], "meaningless-vanishing-probability"),
            (
                ["infer", "t2", "C", "--given", "F", "--alpha2", "1e-12"],
                "meaningless-vanishing-probability",
            ),
        ],
        ids=["probs-F_B", "paper-suite", "weak-values", "infer"],
    )
    def test_meaningless_request_exits_4(self, capsys, argv, verdict):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 4
        assert f"verdict={verdict}" in captured.out
        assert len(captured.out.splitlines()) == 1
        assert captured.err == ""

    @pytest.mark.xfail(strict=True, reason=(
        'ROADMAP item "Verdicts that know their resolution": branch_components '
        "cuts a norm (an amplitude) at 1e-10, coincidence_support a cell (a "
        "probability), so dbe and dce (norm^2 1.7e-13) are listed but in no support"))
    def test_probes_and_coincidences_agree_on_which_patterns_exist(self):
        flags = ["--probes", "a,d,b,c,e", "--epsilon", "1e-4", "--format", "csv"]
        probes = run(["probes", *flags])
        coincidences = run(["coincidences", *flags])
        assert probes["exit"] == coincidences["exit"] == 0
        listed = {row[0][len("norm2["):-1]
                  for row in csv.reader(io.StringIO(probes["stdout"])) if row[0].startswith("norm2[")}
        supported = set()
        for row in list(csv.reader(io.StringIO(coincidences["stdout"])))[1:]:
            supported.update(row[1].split(":")[1].split(","))
        assert listed == supported

    @pytest.mark.xfail(strict=True, reason=(
        'ROADMAP item "Verdicts that know their resolution": infer cuts Pr(F4) = 1e-12 '
        "(a probability) at 1e-10, weak-values the amplitude <F4|S0> = 1e-6"))
    def test_infer_and_weak_values_agree_on_whether_f4_vanishes(self):
        infer = run(["infer", "t2", "C", "--given", "F", "--alpha2", "1e-6"])
        weak = run(["weak-values", "--alpha2", "1e-6"])
        assert (infer["exit"] == 4) == (weak["exit"] == 4)

    @pytest.mark.xfail(strict=True, reason=(
        'ROADMAP item "Verdicts that know their resolution": branch_components cuts '
        "dbe and dce (norm 4e-13) at the absolute 1e-10, so branch-set(a,d,b,c,e) "
        "mismatches although every amp[...] row agrees with its closed form"))
    def test_suite_at_small_epsilon_exits_0(self):
        assert run(["paper-suite", "--epsilon", "1e-8"])["exit"] == 0

    def test_suite_runs_clean(self, capsys):
        code = main(["paper-suite"])
        out = capsys.readouterr().out
        assert code == 0
        last = out.rstrip().splitlines()[-1]
        assert last.startswith("suite-mismatches") and last.endswith("= 0")

    def test_module_entry_point_matches_main(self, capsys):
        argv = ["paper-suite", "--format", "csv"]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "qhistories.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=False,
        )
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


_ALPHA2 = (
    "0", "1", "5e-324", "1e-16", "0.9999999999999999", "0.99999999999999995",
    "1e-12", "1e-6", "0.3333333333333333", "0.5", "nan", "inf", "-0.5", "x", "",
)
_EPSILON = (
    "0", "1", "5e-324", "1e-16", "0.9999999999999999", "0.0001", "0.01", "nan", "x",
)
_TOLERANCE = ("0", "1e-14", "1e-6", "0.5")
_SEED = ("0", "7", "-1", "x", "18446744073709551616")
_SAMPLES = ("1", "1000", "0", "-5", "x", "9223372036854775807", "9223372036854775808")
_CHANNELS = {1: "ADQ", 2: "ABC", 3: "AEH"}
_COMMAND_NAMES = (
    "consistency", "probs", "infer", "weak-values", "probes", "coincidences",
    "sample", "paper-suite",
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(_COMMAND_NAMES))
    argv = [command]
    if command in ("consistency", "probs"):
        argv.append(draw(st.sampled_from([f.name for f in NamedFamilyId])))
    elif command == "infer":
        t = draw(st.integers(1, 3))
        prefix = draw(st.sampled_from(("t", "", "tt")))
        argv += [f"{prefix}{t}", draw(st.sampled_from(_CHANNELS[t])), "--given"]
        argv.append(draw(st.sampled_from("FGH")))
    for key, values in (
        ("alpha2", _ALPHA2),
        ("epsilon", _EPSILON),
        ("tolerance", _TOLERANCE),
        ("seed", _SEED),
        ("samples", _SAMPLES),
        ("format", ("text", "csv")),
    ):
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv.append(f"--{key}={value}")
    probes = draw(st.none() | st.lists(st.sampled_from(BUILTIN_ORDER), unique=True))
    if probes is not None:
        argv.append("--probes=" + ",".join(probes))
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=_argv())
@example(argv=["sample", "--samples=9223372036854775808"])
def test_every_cli_input_ends_with_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert err.getvalue().startswith("error: ") if code == 2 else not err.getvalue()


def _console_script_lines():
    """The commands of CI's "Console script" step, each as (argv, the exit
    code the step requires): 0 for a plain `qhistories ...` line, N for a
    `code=0; qhistories ... || code=$?; test "$code" -eq N` line."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "- name: Console script")
    run_at = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run_at]) - len(lines[run_at].lstrip())
    expected = re.compile(r'code=0; (qhistories .*) \|\| code=\$\?; test "\$code" -eq (\d+)')
    commands = []
    for line in lines[run_at + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        if not line.strip():
            continue
        m = expected.fullmatch(line.strip())
        command, code = (m.group(1), int(m.group(2))) if m else (line.strip(), 0)
        argv = shlex.split(command)
        assert argv[0] == "qhistories", line
        commands.append((argv[1:], code))
    return commands


CONSOLE_SCRIPT = _console_script_lines()


@pytest.mark.parametrize("argv, code", CONSOLE_SCRIPT, ids=[" ".join(a) for a, _ in CONSOLE_SCRIPT])
def test_ci_console_script_line_exits_with_its_code(argv, code):
    # as the step runs it, with PYTHONWARNINGS=error, but in-process
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
    assert got == code, err.getvalue()
