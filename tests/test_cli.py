"""CLI behavior: exit codes, JSON stability, certificates, reports."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from unittest.mock import patch

import pytest

import capelli
from capelli import TowerCertificate, replay_certificate
from capelli.cli import main
from capelli.oracle import OracleVerdict
from capelli.prob import exact_probability

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes -----------------------------------------------------------------


def test_exit_code_matrix(capsys):
    cases = [
        (["test", "-p", "2", "--poly", "x^2+x+1", "-d", "3"], 0),
        (["test", "-p", "3", "--poly", "x^2+x+2", "-d", "2"], 0),
        (["test", "-p", "3", "--poly", "x^2+1", "-d", "2"], 1),
        (["test", "-p", "7", "--poly", "x+1", "-d", "5"], 1),
        (["test", "-p", "7", "--poly", "x+1", "-d", "7"], 1),
        (["test", "-p", "5", "--poly", "x^2+1", "-d", "2"], 2),  # reducible input b
        (["test", "-p", "4", "--poly", "x+1", "-d", "2"], 2),  # composite p
        (["test", "-p", "3", "--poly", "5x", "-d", "2"], 2),  # unreduced coefficient
        (["test", "-p", "3", "--poly", "y", "-d", "2"], 2),  # parse error
        (["test", "-p", "3", "-d", "2"], 2),  # no polynomial at all
        (["prob", "-p", "7", "-k", "1", "-d", "3", "--exact"], 0),
        (["prob", "-d", "12", "--bound"], 0),
        (["prob", "-p", "7", "-k", "1", "-d", "3", "--exact", "--bound"], 2),
        (["prob", "-p", "7", "-k", "1", "-d", "3"], 2),  # no mode
        (["prob", "-d", "3", "--exact"], 2),  # exact needs p and k
        (["prob", "-p", "10007", "-k", "1", "-d", "2", "--census"], 2),  # census bound
        (["generate", "-p", "3", "--start", "x^2+1", "--schedule", "2"], 1),
        (["generate", "-p", "5", "--start", "x^2+2", "--schedule", "2,2"], 0),
        (["generate", "-p", "2", "--start", "x+1", "--target-degree", "8"], 1),  # no viable step
        (["generate", "-p", "2", "--start", "x^2+1", "--schedule", "3"], 2),  # reducible start
        (["generate", "-p", "2", "--start", "x^2+x+1", "--schedule", "3", "--paranoid"], 0),
        (["generate", "-p", "2", "--schedule", "3", "--target-degree", "9"], 2),  # both modes
        # both modes, checked before the auto-start search finds no start
        (["generate", "-p", "7", "--schedule", "3", "--target-degree", "9",
          "--candidate-bound", "1"], 2),
        (["generate", "-p", "7", "--candidate-bound", "1"], 2),  # neither mode
        (["bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "3,2"], 1),  # rejected step
        (["bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "3"], 0),
    ]
    for argv, expected in cases:
        code, _, _ = run_cli(capsys, *argv)
        assert code == expected, (argv, code)


def test_test_exits_2_when_criterion_and_oracle_disagree(capsys):
    with patch("capelli.cli.rabin_test", return_value=OracleVerdict(False, "stub")):
        code, out, err = run_cli(
            capsys, "test", "-p", "2", "--poly", "x^2+x+1", "-d", "3", "--oracle", "--json"
        )
    assert code == 2
    assert "criterion and oracle disagree" in err
    assert json.loads(out)["oracle"]["agrees"] is False


def test_coeffs_input(capsys):
    code, out, _ = run_cli(
        capsys, "test", "-p", "2", "--coeffs", "[1, 1, 1]", "-d", "3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["input"] == "x^2+x+1"
    assert report["verdict"] == "irreducible"


# --- json reports ---------------------------------------------------------------


def test_json_byte_identical_across_runs(capsys):
    argv = ["test", "-p", "3", "--poly", "x^2+1", "-d", "2", "--oracle", "--json"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    argv = ["prob", "-p", "7", "-k", "1", "-d", "3", "--sample", "400", "--seed", "9", "--json"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_json_report_golden(capsys):
    code, out, _ = run_cli(
        capsys, "test", "-p", "3", "--poly", "x^2+1", "-d", "2", "--oracle", "--json"
    )
    assert code == 1
    golden = (DATA / "golden_test_report.json").read_text()
    assert out == golden


def test_oracle_confirms_a_word_size_tower_step_under_the_default_bound(capsys):
    """x^122 + 2 over F_{2^61-1}: Rabin by binomial Frobenius steps fits the default budget."""
    code, out, _ = run_cli(
        capsys, "test", "-p", str(2**61 - 1), "--poly", "x^2+2", "-d", "61", "--oracle", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "irreducible"
    assert report["oracle"] == {"verdict": "irreducible", "agrees": True, "oracle_mults": "738"}


def test_prob_sample_report_golden_at_word_size_p(capsys):
    """Monte Carlo over F_p, p = 2^61 - 1: the Montgomery ladder decides every alpha."""
    code, out, _ = run_cli(
        capsys, "prob", "-p", str(2**61 - 1), "-k", "1", "-d", "6",
        "--sample", "3000", "--seed", "1", "--json",
    )
    assert code == 0
    assert out == (DATA / "golden_prob_sample_wordp.json").read_text()
    assert json.loads(out)["sample"]["successes"] == "1023"


def test_json_report_fields(capsys):
    _, out, _ = run_cli(
        capsys, "test", "-p", "7", "--poly", "x^2+x+3", "-d", "4", "--oracle", "--json"
    )
    report = json.loads(out)
    assert list(report) == ["p", "input", "d", "verdict", "reason", "evidence", "tests", "work", "oracle"]
    assert report["oracle"]["agrees"] is True
    # decimal-string discipline
    assert report["p"] == "7" and report["d"] == "4"
    int(report["work"]["criterion_mults"])
    int(report["oracle"]["oracle_mults"])


def test_prob_reports(capsys):
    _, out, _ = run_cli(capsys, "prob", "-p", "7", "-k", "1", "-d", "3", "--exact", "--json")
    r = json.loads(out)
    assert r["value"]["rational"] == "2/3"
    _, out, _ = run_cli(capsys, "prob", "-d", "12", "--bound", "--json")
    assert json.loads(out)["value"]["rational"] == "1/6"
    _, out, _ = run_cli(capsys, "prob", "-p", "7", "-k", "1", "-d", "6", "--census", "--json")
    r = json.loads(out)
    assert (r["census"]["irreducible_count"], r["census"]["total"]) == ("2", "6")
    _, out, _ = run_cli(
        capsys, "prob", "-p", "3", "-k", "1", "-d", "4", "--sample", "200", "--json"
    )
    assert json.loads(out)["sample"]["successes"] == "0"
    _, out, _ = run_cli(
        capsys, "prob", "-p", "5", "-k", "1", "-d", "2", "--census", "--include-zero", "--json"
    )
    r = json.loads(out)
    assert (r["census"]["irreducible_count"], r["census"]["total"]) == ("2", "5")


def test_prob_census_passes_the_work_bound_to_its_oracle(capsys):
    argv = ["prob", "-p", "3", "-k", "2", "-d", "4", "--census", "--json"]
    assert run_cli(capsys, *argv, "--work-bound", "100")[0] == 2
    code, out, _ = run_cli(capsys, *argv, "--work-bound", "0")
    assert code == 0 and json.loads(out)["census"]["irreducible_count"] == "4"


def test_prob_sample_passes_the_work_bound_to_its_modulus_search(capsys):
    # k(k + 2) = 24 multiplications for Rabin's first gcd at degree 4 exceed 20
    argv = ["prob", "-p", "3", "-k", "4", "-d", "2", "--sample", "10"]
    code, _, err = run_cli(capsys, *argv, "--work-bound", "20")
    assert code == 2 and "(bound 20)" in err
    assert run_cli(capsys, *argv, "--work-bound", "0")[0] == 0


def test_prob_census_over_f_8192_fits_the_default_work_bound(capsys):
    """2^13 - 1 is prime, so every prime divisor of d = 15 is coprime to
    q - 1 and no alpha counts; the oracle confirms 820 of them over F_2."""
    argv = ["prob", "-p", "2", "-k", "13", "-d", "15", "--census", "--json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    census = json.loads(out)["census"]
    assert (census["irreducible_count"], census["total"]) == ("0", "8191")


@pytest.mark.parametrize("k", ["100000", "100000000"])
def test_census_refuses_a_large_k_before_it_builds_the_order(capsys, k):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "prob", "-p", "3", "-k", k, "-d", "2", "--census")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err == f"error: census over a field of order 3^{k} exceeds the bound 10000\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
def test_exact_probability_is_written_past_the_digit_limit(capsys, json_flag):
    """(1/2)(3^k - 1)/3^k at k = 10^5: the denominator 3^k has 47,713 digits."""
    argv = ["prob", "-p", "3", "-k", "100000", "-d", "2", "--exact", "--include-zero"]
    code, out, _ = run_cli(capsys, *argv, *json_flag)
    assert code == 0
    rational = json.loads(out)["value"]["rational"] if json_flag else out.split()[2]
    n, d = (int(Decimal(part)) for part in rational.split("/"))
    assert d == 3**100000
    assert Fraction(n, d) == exact_probability(3, 100000, 2, "include-zero")


def test_generate_writes_replayable_certificate(tmp_path, capsys):
    cert_path = tmp_path / "tower.json"
    code, out, _ = run_cli(
        capsys,
        "generate",
        "-p",
        "2",
        "--start",
        "x^2+x+1",
        "--schedule",
        "3,3",
        "--cert-out",
        str(cert_path),
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["final"]["poly"] == "x^18+x^9+1"
    assert report["final"]["degree"] == "18"
    on_disk = json.loads(cert_path.read_text())
    assert on_disk == report["certificate"]
    cert = TowerCertificate.from_json_dict(on_disk)
    assert replay_certificate(cert)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["-p", "2", "--start", "x^2+x+1", "--schedule", "3,3,3,3,3,3,3"],
         "d3415306bd8f217b7604fdf50bcdc76fe5e709e7394a6cba977e4f2b1e9467a8"),
        (["-p", str(2**61 - 1), "--start", "x^2+2", "--target-degree", "7442"],
         "02577c12f46dada06f4aae0b17ac3a953112bfd21c7dfd82a82026661daeb878"),
        (["-p", "13", "--target-degree", "5000"],
         "cd871a086490585db6e4d265e2fc775e278dbb159a197b2bdf8985417295c45d"),
    ],
    ids=["tower-p2", "tower-wordp", "p13-auto"],
)
def test_generated_certificates_are_pinned(tmp_path, capsys, argv, digest):
    """The bytes `generate --cert-out` writes for the benchmark's two towers
    and an auto-started tower at p = 13, by SHA-256."""
    cert_path = tmp_path / "tower.json"
    code, _, _ = run_cli(capsys, "generate", *argv, "--cert-out", str(cert_path))
    assert code == 0
    assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == digest


def test_generate_auto_start(capsys):
    code, out, _ = run_cli(capsys, "generate", "-p", "3", "--target-degree", "16", "--json")
    assert code == 0
    report = json.loads(out)
    assert int(report["final"]["degree"]) >= 16
    cert = TowerCertificate.from_json_dict(report["certificate"])
    assert replay_certificate(cert)


def test_generate_rejected_step_report(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "-p", "3", "--start", "x^2+1", "--schedule", "2", "--json"
    )
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "step-rejected"
    assert report["reason"] == "alpha-is-dprime-power"


def test_rejected_step_report_writes_exponents_past_the_digit_limit(capsys):
    # step 9 runs at degree 2*3^9 = 39,366: its d' = 7 exponent has 11,850 digits
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(
        capsys, "generate", "-p", "2", "--start", "x^2+x+1",
        "--schedule", "3,3,3,3,3,3,3,3,3,7", "--json",
    )
    assert code == 1
    assert sys.get_int_max_str_digits() == limit
    report = json.loads(out)
    assert (report["error"], report["step"], report["d"]) == ("step-rejected", "9", "7")
    assert report["reason"] == "alpha-is-dprime-power"
    exponent = report["evidence"]["exponent"]
    assert len(exponent) == 11850
    assert int(Decimal(exponent)) == (2**39366 - 1) // 7
    assert report["tests"] == [report["evidence"]]


def test_bench_partial_table_on_rejection(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "3,2,3", "--json"
    )
    assert code == 1
    report = json.loads(out)
    assert report["complete"] is False
    assert len(report["steps"]) == 2  # stopped at the rejected second step
    assert report["steps"][1]["verdict"] == "reducible"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
def test_bench_stops_where_criterion_and_oracle_disagree(capsys, json_flag):
    real = capelli.cli.rabin_test

    def oracle(f, **kwargs):
        # the base and the first composition are right; the degree-18 one is called reducible
        return OracleVerdict(False, "stub") if f.degree == 18 else real(f, **kwargs)

    argv = ["bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "3,3,3", *json_flag]
    with patch("capelli.cli.rabin_test", side_effect=oracle):
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error: criterion and oracle disagree at step 1" in err
    if json_flag:
        report = json.loads(out)
        assert report["complete"] is False
        assert [s["verdict"] for s in report["steps"]] == ["irreducible", "irreducible"]
    else:
        assert len(out.splitlines()) == 3  # the header and the rows so far


def test_bench_degree_one_ratio_convention(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "1,3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["steps"][0]["d"] == "1"
    assert report["steps"][0]["speedup"] == "1.000"


def test_bench_speedup_unbounded_when_criterion_does_no_work(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "3,3", "--json"
    )
    assert code == 0
    for step in json.loads(out)["steps"]:
        assert step["criterion_mults"] == "0"
        assert step["speedup"] == "inf"


def test_bench_oracle_fits_default_work_bound_at_degree_162(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "3,3,3,3", "--json"
    )
    assert code == 0
    assert json.loads(out)["steps"][-1]["degree"] == "162"


def test_module_entry_point():
    src = pathlib.Path(capelli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "capelli", "--help"], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0
    assert b"usage: capelli" in done.stdout


def test_bench_speedup_present(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "3,3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    last = report["steps"][-1]
    assert int(last["criterion_mults"]) < int(last["oracle_mults"])


def test_zero_root_evidence_report(capsys):
    code, out, _ = run_cli(capsys, "test", "-p", "3", "--poly", "x", "-d", "2", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["evidence"] == {"kind": "zero-root", "dprime": "2"}
    assert report["tests"] == []


def test_bench_speedup_is_the_ratio_of_oracle_to_criterion_work(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "-p", "5", "--start", "x^2+2", "--schedule", "2,3", "--json"
    )
    assert code == 1
    steps = json.loads(out)["steps"]
    got = [(s["verdict"], s["criterion_mults"], s["oracle_mults"], s["speedup"]) for s in steps]
    assert got == [("irreducible", "1", "19", "19.000"), ("reducible", "14", "16", "1.143")]
    for s in steps:
        assert s["speedup"] == f"{int(s['oracle_mults']) / int(s['criterion_mults']):.3f}"


# --- sizes beyond the work bound ------------------------------------------------

HUGE_D = "3486784401"  # 3^20: x^2+x+1 over F_2 passes, and b(x^d) has 7 * 10^9 coefficients


def test_generate_refuses_a_step_above_the_work_bound(capsys):
    with patch("capelli.criterion.compose_power", side_effect=AssertionError):
        code, _, err = run_cli(
            capsys, "generate", "-p", "2", "--start", "x^2+x+1", "--schedule", HUGE_D, "--json"
        )
    assert code == 2 and "work bound" in err
    code, _, err = run_cli(
        capsys, "generate", "-p", "2", "--start", "x^2+x+1",
        "--schedule", "3,3,3,3,3,3", "--work-bound", "1000",
    )
    assert code == 2
    assert err == (
        "error: b(x^3) for b of degree 486 has degree 1458, above the work bound 1000\n"
    )


def test_test_and_bench_refuse_to_compose_above_the_work_bound(capsys):
    with patch("capelli.criterion.compose_power", side_effect=AssertionError):
        for argv in (
            ["test", "-p", "2", "--poly", "x^2+x+1", "-d", HUGE_D, "--oracle", "--json"],
            ["test", "-p", "2", "--poly", "x^2+x+1", "-d", "81", "--oracle", "--work-bound", "100"],
            ["bench", "-p", "2", "--start", "x^2+x+1", "--schedule", HUGE_D],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and "above the work bound" in err, argv


def test_poly_text_above_the_parse_bound_exits_2(capsys):
    """Degree 10^8 in --poly is refused by the parser, not by MemoryError."""
    with patch("capelli.polytext.Poly", side_effect=AssertionError):
        code, _, err = run_cli(capsys, "test", "-p", "2", "--poly", "x^100000000+x+1", "-d", "3")
    assert code == 2
    assert err == "error: degree 100000000 exceeds the largest parsed degree 16777216\n"


def test_memory_error_exits_2_with_one_line(capsys):
    for argv in (
        ["test", "-p", "2", "--poly", "x^2+x+1", "-d", "3", "--oracle"],
        ["bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "3"],
        ["generate", "-p", "2", "--start", "x^2+x+1", "--schedule", "3"],
    ):
        with patch("capelli.criterion.compose_power", side_effect=MemoryError):
            code, _, err = run_cli(capsys, *argv, "--work-bound", "0")
        assert code == 2, argv
        assert err.startswith("error: out of memory") and err.count("\n") == 1


# --- every command's output, pinned ---------------------------------------------

WORD_P = str(2**61 - 1)
PINNED_COMMANDS = {
    "test-golden": ["test", "-p", "3", "--poly", "x^2+1", "-d", "2", "--oracle"],
    "test-irreducible": ["test", "-p", "2", "--poly", "x^2+x+1", "-d", "3"],
    "test-fourth-power": ["test", "-p", "7", "--poly", "x^2+x+3", "-d", "4", "--oracle"],
    "test-zero-root": ["test", "-p", "3", "--poly", "x", "-d", "2"],
    "test-word-p": ["test", "-p", WORD_P, "--poly", "x^2+2", "-d", "61", "--oracle"],
    "test-reducible-b": ["test", "-p", "5", "--poly", "x^2+1", "-d", "2"],
    "test-work-bound": ["test", "-p", "2", "--poly", "x^2+x+1", "-d", "81", "--oracle",
                        "--work-bound", "100"],
    "generate-paranoid": ["generate", "-p", "2", "--start", "x^2+x+1", "--schedule", "3,3",
                          "--paranoid"],
    "generate-cert-out": ["generate", "-p", "5", "--start", "x^2+2", "--schedule", "2,2",
                          "--cert-out", "tower.json"],
    "generate-auto-start": ["generate", "-p", "3", "--target-degree", "16"],
    "generate-rejected": ["generate", "-p", "3", "--start", "x^2+1", "--schedule", "2"],
    "generate-no-viable-step": ["generate", "-p", "2", "--start", "x+1", "--target-degree", "8"],
    "generate-reducible-start": ["generate", "-p", "2", "--start", "x^2+1", "--schedule", "3"],
    "generate-work-bound": ["generate", "-p", "2", "--start", "x^2+x+1",
                            "--schedule", "3,3,3,3,3,3", "--work-bound", "1000"],
    "generate-both-modes": ["generate", "-p", "2", "--schedule", "3", "--target-degree", "9"],
    "prob-exact": ["prob", "-p", "7", "-k", "1", "-d", "3", "--exact"],
    "prob-exact-include-zero": ["prob", "-p", "3", "-k", "2", "-d", "4", "--exact",
                                "--include-zero"],
    "prob-bound": ["prob", "-d", "12", "--bound"],
    "prob-census": ["prob", "-p", "7", "-k", "1", "-d", "6", "--census"],
    "prob-census-include-zero": ["prob", "-p", "5", "-k", "1", "-d", "2", "--census",
                                 "--include-zero"],
    "prob-census-bound": ["prob", "-p", "10007", "-k", "1", "-d", "2", "--census"],
    "prob-census-work-bound": ["prob", "-p", "3", "-k", "2", "-d", "4", "--census",
                               "--work-bound", "100"],
    "prob-sample-extension": ["prob", "-p", "3", "-k", "2", "-d", "2", "--sample", "50"],
    "prob-sample-golden": ["prob", "-p", WORD_P, "-k", "1", "-d", "6", "--sample", "3000",
                           "--seed", "1"],
    "prob-two-modes": ["prob", "-p", "7", "-k", "1", "-d", "3", "--exact", "--bound"],
    "bench-complete": ["bench", "-p", "2", "--start", "x^2+x+1", "--schedule", "1,3,3"],
    "bench-rejected": ["bench", "-p", "5", "--start", "x^2+2", "--schedule", "2,3"],
    "bench-reducible-start": ["bench", "-p", "2", "--start", "x^2+1", "--schedule", "3"],
    "bench-work-bound": ["bench", "-p", "2", "--start", "x^2+x+1", "--schedule", HUGE_D],
}


def mask_timings(text):
    """Human output with its wall-clock figures replaced: "<n>.<n> ms" in
    `test` and `generate`, and the two trailing time columns of `bench` rows."""
    text = re.sub(r"\d+\.\d+ ms\b", "<t> ms", text)
    return re.sub(r"(?m)( +\d+\.\d\d){2}$", " <t> <t>", text)


def pinned_run(capsys, argv, json_flag):
    code, out, err = run_cli(capsys, *argv, *(("--json",) if json_flag else ()))
    return {"code": code, "out": out if json_flag else mask_timings(out), "err": err}


@pytest.mark.parametrize("json_flag", [False, True], ids=["human", "json"])
@pytest.mark.parametrize("name", list(PINNED_COMMANDS))
def test_command_output_is_pinned(tmp_path, monkeypatch, capsys, name, json_flag):
    """Exit code, stdout and stderr of each command in both output modes,
    timings masked, as recorded in data/cli_outputs.json."""
    monkeypatch.chdir(tmp_path)
    expected = json.loads((DATA / "cli_outputs.json").read_text())
    mode = "json" if json_flag else "human"
    assert pinned_run(capsys, PINNED_COMMANDS[name], json_flag) == expected[name][mode]
