import json
from pathlib import Path

import pytest

from trapmeasure.cli import main

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, capsys):
    argv, expected_code = GOLDEN_CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN_DIR / name).read_text()


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

    def test_budget_below_seed_count(self, capsys):
        assert main(["alpha", "--n", "2", "--heuristic", "--budget", "1", "--seed", "1"]) == 1
        assert "budget" in capsys.readouterr().err

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
    def test_env_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("TRAPMEASURE_THREADS", "1")
        assert main(["alpha", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == "2/3"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TRAPMEASURE_THREADS", "junk")
        # the flag short-circuits env parsing entirely
        assert main(["alpha", "--n", "2", "--workers", "1"]) == 0

    def test_bad_env_is_invalid_input(self, capsys, monkeypatch):
        monkeypatch.setenv("TRAPMEASURE_THREADS", "junk")
        assert main(["alpha", "--n", "2"]) == 1


class TestTimingFlag:
    def test_timing_adds_wall_time(self, capsys):
        main(["alpha", "--n", "2", "--workers", "1", "--timing"])
        payload = json.loads(capsys.readouterr().out)
        assert "wall_time_s" in payload
        assert payload["wall_time_s"] >= 0

    def test_default_omits_wall_time(self, capsys):
        main(["alpha", "--n", "2", "--workers", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert "wall_time_s" not in payload
