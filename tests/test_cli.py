import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import trapmeasure.cli as cli_module
from trapmeasure.cli import CliError, build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"
BENCH_EXPECTED_DIR = Path(__file__).parent.parent / "benchmark" / "expected"

GOLDEN_CASES = {
    "area_3_132.txt": (["area", "--n", "3", "--perm", "1,3,2"], 0),
    "area_3_132.json": (["area", "--n", "3", "--perm", "1,3,2", "--format", "json"], 0),
    "area_3_132.csv": (["area", "--n", "3", "--perm", "1,3,2", "--format", "csv"], 0),
    "slice_3_132_half.txt": (["slice", "--n", "3", "--perm", "1,3,2", "--y", "1/2"], 0),
    "slice_3_132_half.json": (
        ["slice", "--n", "3", "--perm", "1,3,2", "--y", "1/2", "--format", "json"],
        0,
    ),
    "alpha_2.json": (["alpha", "--n", "2", "--workers", "1"], 0),
    "alpha_3.csv": (["alpha", "--n", "3", "--workers", "1", "--format", "csv"], 0),
    "alpha_scan_4.csv": (["alpha-scan", "--max-n", "4", "--workers", "1"], 0),
    "alpha_scan_5.json": (
        [
            "alpha-scan",
            "--max-n",
            "5",
            "--exhaustive-limit",
            "4",
            "--budget",
            "50",
            "--seed",
            "0",
            "--workers",
            "1",
            "--format",
            "json",
        ],
        0,
    ),
    "sigma3_3.csv": (["sigma3", "--max-m", "3"], 0),
    "sigma3_3.json": (["sigma3", "--max-m", "3", "--format", "json"], 0),
    "sigma_n_4.json": (["sigma-n", "--n", "4"], 0),
    "sigma_n_10.csv": (["sigma-n", "--n", "10", "--format", "csv"], 0),
    "cantor_half_d6.txt": (["cantor", "--t", "1/2", "--depth", "6"], 0),
    "cantor_half_d6.csv": (["cantor", "--t", "1/2", "--depth", "6", "--format", "csv"], 0),
    "slice_measure_zero.txt": (["slice-measure", "--t", "0"], 0),
    "slice_measure_quarter.json": (["slice-measure", "--t", "1/4", "--format", "json"], 0),
    "favard_0_1024.txt": (["favard", "--depth", "0", "--quad-points", "1024"], 0),
    "favard_1_1024.json": (
        ["favard", "--depth", "1", "--quad-points", "1024", "--format", "json"],
        0,
    ),
    "verify_lemma1_d1.csv": (["verify", "lemma1", "--depths", "1", "--t-points", "5"], 3),
    "verify_lemma2_default.csv": (["verify", "lemma2"], 0),
    "verify_weighted_sum_4.csv": (["verify", "weighted-sum", "--n", "4"], 0),
    "render_trapezoid_3.svg": (["render", "trapezoid", "--n", "3", "--perm", "1,3,2"], 0),
    "render_gasket_1.svg": (["render", "gasket", "--depth", "1"], 0),
    # every remaining command x format pair, and the stderr summaries
    "slice_3_132_half.csv": (
        ["slice", "--n", "3", "--perm", "1,3,2", "--y", "1/2", "--format", "csv"],
        0,
    ),
    "alpha_3.txt": (["alpha", "--n", "3", "--workers", "1", "--format", "text"], 0),
    "alpha_scan_4.txt": (["alpha-scan", "--max-n", "4", "--workers", "1", "--format", "text"], 0),
    "alpha_scan_5.csv": (
        [
            "alpha-scan",
            "--max-n",
            "5",
            "--exhaustive-limit",
            "4",
            "--budget",
            "50",
            "--seed",
            "0",
            "--workers",
            "1",
        ],
        0,
    ),
    "sigma3_3.txt": (["sigma3", "--max-m", "3", "--format", "text"], 0),
    "sigma_n_10.txt": (["sigma-n", "--n", "10", "--format", "text"], 0),
    "cantor_half_d6.json": (["cantor", "--t", "1/2", "--depth", "6", "--format", "json"], 0),
    "slice_measure_quarter.csv": (["slice-measure", "--t", "1/4", "--format", "csv"], 0),
    "favard_0_1024.csv": (
        ["favard", "--depth", "0", "--quad-points", "1024", "--format", "csv"],
        0,
    ),
    "verify_lemma1_d1.json": (
        ["verify", "lemma1", "--depths", "1", "--t-points", "5", "--format", "json"],
        3,
    ),
    "verify_lemma1_d1.txt": (
        ["verify", "lemma1", "--depths", "1", "--t-points", "5", "--format", "text"],
        3,
    ),
    "verify_lemma2_default.json": (["verify", "lemma2", "--format", "json"], 0),
    "verify_lemma2_default.txt": (["verify", "lemma2", "--format", "text"], 0),
    "verify_weighted_sum_4.json": (["verify", "weighted-sum", "--n", "4", "--format", "json"], 0),
    "verify_weighted_sum_4.txt": (["verify", "weighted-sum", "--n", "4", "--format", "text"], 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, capsys):
    # stderr is pinned by <name>.stderr where the command writes any
    argv, expected_code = GOLDEN_CASES[name]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected_code
    assert captured.out == (GOLDEN_DIR / name).read_text()
    err_path = GOLDEN_DIR / f"{name}.stderr"
    assert captured.err == (err_path.read_text() if err_path.exists() else "")


@pytest.mark.parametrize(
    "name", ["alpha_scan_4.csv", "favard_0_1024.txt", "render_gasket_1.svg"]
)
def test_repeat_runs_byte_identical(name, capsys):
    argv, _ = GOLDEN_CASES[name]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


FULL_SIZE_PINS = {
    "favard_d8_q4096.txt": (["favard", "--depth", "8", "--quad-points", "4096"], 0),
    "lemma1_d1-6_t11.csv": (["verify", "lemma1", "--depths", "1,2,3,4,5,6", "--t-points", "11"], 3),
}


@pytest.mark.parametrize("name", sorted(FULL_SIZE_PINS))
def test_full_size_gasket_outputs_match_benchmark_pins(name, capsys):
    argv, expected_code = FULL_SIZE_PINS[name]
    code = main(argv)
    assert capsys.readouterr().out == (BENCH_EXPECTED_DIR / name).read_text()
    assert code == expected_code


SWEEP_PINS = {
    "sigma3_max_m_6.csv": ["sigma3", "--max-m", "6"],
    "sigma_n_1000.json": ["sigma-n", "--n", "1000"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_full_size_sweep_outputs_match_benchmark_pins(name, capsys):
    code = main(SWEEP_PINS[name])
    assert capsys.readouterr().out == (BENCH_EXPECTED_DIR / name).read_text()
    assert code == 0


class TestOutputRouting:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "area.txt"
        code = main(["area", "--n", "3", "--perm", "1,3,2", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == (GOLDEN_DIR / "area_3_132.txt").read_text()

    def test_unwritable_path_is_invalid_input(self, tmp_path, capsys):
        code = main(
            ["area", "--n", "2", "--perm", "identity", "--out", str(tmp_path / "no" / "x.txt")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_integers_past_the_str_digit_limit(self, capsys, monkeypatch):
        # the digit-swap area at m = 9 has integers of over 8,000 digits,
        # past Python's default limit of 4,300 for int-to-str conversion
        import trapmeasure.cli as cli_module

        monkeypatch.setattr(cli_module.trap_mod, "area", lambda spec: Fraction(10**5000 + 1, 2 * 10**5000))
        previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if previous is not None:
            sys.set_int_max_str_digits(4300)
        try:
            assert main(["sigma3", "--max-m", "1", "--format", "csv"]) == 0
        finally:
            if previous is not None:
                sys.set_int_max_str_digits(previous)
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == "1" + "0" * 4999 + "1"
        assert row[3] == "2" + "0" * 5000

    def test_str_digit_limit_restored(self, capsys):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("no int-to-str digit limit before Python 3.11")
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert main(["sigma3", "--max-m", "1"]) == 0
            assert sys.get_int_max_str_digits() == 4300
            assert main(["frobnicate"]) == 1
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(previous)

    def test_csv_uses_lf_line_endings(self, tmp_path):
        target = tmp_path / "scan.csv"
        main(["alpha-scan", "--max-n", "3", "--workers", "1", "--out", str(target)])
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["area", "--n", "3", "--perm", "1,3,2", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_invalid_permutation(self, capsys):
        assert main(["area", "--n", "3", "--perm", "1,1,2"]) == 1

    def test_mismatched_named_perm(self, capsys):
        assert main(["area", "--n", "4", "--perm", "digit-swap:1"]) == 1

    def test_invalid_height(self, capsys):
        assert main(["slice", "--n", "2", "--perm", "2,1", "--y", "7/2"]) == 1

    def test_exhaustive_guard(self, capsys):
        assert main(["alpha", "--n", "11", "--workers", "1"]) == 1

    def test_exactness_limit_exits_at_once(self, capsys):
        started = time.perf_counter()
        assert main(["alpha", "--n", "16", "--force", "--workers", "1"]) == 1
        assert time.perf_counter() - started < 5
        assert "overflow" in capsys.readouterr().err

    def test_area_integration_limit_exits_at_once(self, capsys, monkeypatch):
        import trapmeasure.cli as cli_module

        def no_sweep(*args):
            raise RuntimeError("the sweep started")

        # a missing guard turns into exit 2 here, not hours of sweeping
        monkeypatch.setattr(cli_module.trap_mod, "_edge_jumps", no_sweep)
        n = cli_module.trap_mod.SLOPE_MAX_N + 1
        started = time.perf_counter()
        assert main(["area", "--n", str(n), "--perm", "reversal"]) == 1
        assert time.perf_counter() - started < 5
        assert "the largest n exact area accepts" in capsys.readouterr().err

    def test_sigma3_past_the_area_limit_exits_at_once(self, capsys, monkeypatch):
        import trapmeasure.cli as cli_module

        def no_area(spec):
            raise RuntimeError("an area started")

        # 3^10 is above the limit: refused before the areas of m <= 9
        monkeypatch.setattr(cli_module.trap_mod, "area", no_area)
        assert 3**9 <= cli_module.trap_mod.SLOPE_MAX_N < 3**10
        started = time.perf_counter()
        assert main(["sigma3", "--max-m", "10"]) == 1
        assert time.perf_counter() - started < 5
        assert "the largest n exact area accepts" in capsys.readouterr().err

    @pytest.mark.parametrize("max_m", ["0", "-1"])
    def test_sigma3_without_rows_exits_one(self, capsys, max_m):
        assert main(["sigma3", "--max-m", max_m]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-m must be at least 1" in captured.err

    @pytest.mark.parametrize("limits", [["11", "11"], ["12", "11"], ["11", "40"]])
    def test_alpha_scan_past_the_guard_exits_at_once(self, capsys, monkeypatch, limits):
        import trapmeasure.search as search_module

        def no_search(*args, **kwargs):
            raise RuntimeError("a search started")

        # refused before the exhaustive searches below the guard
        monkeypatch.setattr(search_module, "alpha_exhaustive", no_search)
        monkeypatch.setattr(search_module, "alpha_heuristic", no_search)
        max_n, limit = limits
        started = time.perf_counter()
        assert main(["alpha-scan", "--max-n", max_n, "--exhaustive-limit", limit, "--workers", "1"]) == 1
        assert time.perf_counter() - started < 5
        assert "exact sweeps" in capsys.readouterr().err

    def test_budget_below_seed_count(self, capsys):
        assert main(["alpha", "--n", "2", "--heuristic", "--budget", "1", "--seed", "1"]) == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("n_values", ["1/0", "5,abc"])
    def test_unparsable_lemma2_n_value(self, capsys, n_values):
        assert main(["verify", "lemma2", "--n-values", n_values]) == 1
        assert capsys.readouterr().err.startswith("error: cannot parse rational")

    def test_lemma2_past_double_range_exits_one(self, capsys):
        # e^710 overflows a double: refused as input, not an internal failure
        assert main(["verify", "lemma2", "--n-values", "5,710"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid value 710.0")

    @pytest.mark.parametrize("flags", [["--p", "1e400"], ["--n-values", "5,1e400"]])
    def test_lemma2_value_past_a_double_exits_one(self, capsys, flags):
        # float() of the parsed Fraction overflows: refused as input
        assert main(["verify", "lemma2", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: '1e400' is too large for a double")

    def test_verify_violation_exits_three(self, capsys):
        assert main(["verify", "lemma1", "--depths", "1", "--t-points", "3"]) == 3

    def test_verify_clean_exits_zero(self, capsys):
        assert main(["verify", "weighted-sum", "--n", "7"]) == 0

    def test_internal_failure_exits_two(self, capsys, monkeypatch):
        import trapmeasure.cli as cli_module

        def boom(spec):
            raise RuntimeError("simulated breakage")

        monkeypatch.setattr(cli_module.trap_mod, "area", boom)
        assert main(["area", "--n", "2", "--perm", "2,1"]) == 2
        assert "simulated breakage" in capsys.readouterr().err


class TestNamedPermutations:
    def test_identity_reversal_composite(self, capsys):
        assert main(["area", "--n", "5", "--perm", "identity"]) == 0
        assert capsys.readouterr().out.startswith("1 ")
        assert main(["area", "--n", "2", "--perm", "reversal"]) == 0
        assert capsys.readouterr().out.startswith("3/4 ")
        assert main(["area", "--n", "3", "--perm", "composite"]) == 0
        assert capsys.readouterr().out.startswith("5/6 ")

    def test_digit_swap_named(self, capsys):
        assert main(["area", "--n", "9", "--perm", "digit-swap:2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("2759/3780 ")


class TestWorkerEnvVar:
    """TRAPMEASURE_THREADS is no longer read: even a junk value leaves the
    worker count, and so the output, unchanged."""

    def test_env_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("TRAPMEASURE_THREADS", "junk")
        assert main(["alpha", "--n", "3"]) == 0
        assert '"alpha": "2/3"' in capsys.readouterr().out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TRAPMEASURE_THREADS", "junk")
        assert main(["alpha", "--n", "3", "--workers", "1"]) == 0
        assert '"alpha": "2/3"' in capsys.readouterr().out


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha", "--n", "3", "--no-symmetry"],
            ["alpha", "--n", "3", "--timing"],
            ["alpha-scan", "--max-n", "3", "--timing"],
        ],
    )
    def test_rejected_as_unrecognised(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


class TestTimingFlag:
    def test_default_omits_wall_time(self, capsys):
        main(["alpha", "--n", "2", "--workers", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert "wall_time_s" not in payload


def _subcommands(parser):
    """The name -> parser map of a parser's subcommand action."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


FULL = _subcommands(build_parser())
# the top level, every command, and every verify and render check
HELP_PATHS = [[], *([name] for name in FULL)] + [
    [group, check] for group in ("verify", "render") for check in _subcommands(FULL[group])
]


class TestNarrowedParser:
    """``main`` builds only the parser path its argv names; each test here
    compares that path with the full parser."""

    VALID = {
        **{name: argv for name, (argv, _) in GOLDEN_CASES.items()},
        **{name: argv for name, (argv, _) in FULL_SIZE_PINS.items()},
        **SWEEP_PINS,
    }

    @pytest.mark.parametrize("name", sorted(VALID))
    def test_same_namespace(self, name):
        argv = self.VALID[name]
        assert vars(build_parser(argv).parse_args(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["area", "--n", "3", "--perm", "1,3,2", "--bogus"],  # unknown flag
            ["frobnicate"],  # unknown command
            ["area", "--n", "3"],  # missing required option
            ["verify", "lemma1", "--t-points", "x"],  # invalid value
            ["render"],  # missing check
        ],
    )
    def test_same_error(self, argv):
        messages = []
        for parser in (build_parser(argv), build_parser()):
            with pytest.raises(CliError) as info:
                parser.parse_args(argv)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("path", HELP_PATHS, ids=lambda path: " ".join(path) or "top")
    def test_same_help(self, path, capsys):
        argv = [*path, "--help"]
        # main returns 0 after help; only the bare parser exits
        assert main(argv) == 0
        text = capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out == text
        assert text.startswith("usage: trapmeasure")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_app_exits_zero_after_help(self, flag, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["trapmeasure", "verify", flag])
        with pytest.raises(SystemExit) as info:
            cli_module.app()
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: trapmeasure verify")

    def test_table_names_are_the_full_choices(self):
        assert list(cli_module._COMMANDS) == list(FULL)
        for group in ("verify", "render"):
            _, _, (_, checks) = cli_module._COMMANDS[group]
            assert list(checks) == list(_subcommands(FULL[group]))

    def test_only_the_named_path_is_built(self):
        assert list(_subcommands(build_parser(["area", "--n", "3", "--perm", "1,3,2"]))) == ["area"]
        verify = _subcommands(build_parser(["verify", "lemma2"]))
        assert list(verify) == ["verify"]
        assert list(_subcommands(verify["verify"])) == ["lemma2"]

    def test_main_without_argv_reads_sys_argv_and_narrows(self, monkeypatch, capsys):
        built = []

        def recording_build_parser(argv=()):
            built.append(build_parser(argv))
            return built[-1]

        monkeypatch.setattr(cli_module, "build_parser", recording_build_parser)
        monkeypatch.setattr(sys, "argv", ["trapmeasure", "area", "--n", "3", "--perm", "1,3,2"])
        assert main() == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "area_3_132.txt").read_text()
        assert [list(_subcommands(parser)) for parser in built] == [["area"]]


class TestColdImport:
    def test_cli_import_loads_no_process_machinery(self):
        # only a forking search needs the process pool; a fresh interpreter
        # that imports the CLI has not loaded it
        src = Path(cli_module.__file__).resolve().parents[1]
        code = (
            "import sys, trapmeasure.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"
