"""The benchmark's own tests: reduced-size runs and corrupted outputs.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import WORD_P, Round, SmallFieldsSpec, TowerSpec, run_round  # noqa: E402

SMALL = {
    "tower-p2": TowerSpec(p=2, base=(1, 1, 1), final_degree=54, confirm_degree=18,
                          schedule=(3, 3, 3)),
    "tower-wordp": TowerSpec(p=WORD_P, base=(2, 0, 1), final_degree=122, confirm_degree=122),
    "small-fields": SmallFieldsSpec(
        census_cap=32,
        samples=((3, 2, 4, 300), (WORD_P, 1, 6, 600)),
        sweep_primes=(2, 3),
        sweep_cap=27,
        trial_cap=64,
    ),
}


def spec_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_reduced_run_prints_every_metric(name, trace, small_workloads, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = spec_file()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_file_names_every_workload():
    spec = spec_file()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(LAYER_UNITS) <= per_layer


def test_work_counts_repeat_between_rounds():
    spec = SMALL["small-fields"]
    first = run_round(spec, 5, traced=True).layers
    second = run_round(spec, 5, traced=True).layers
    for name, unit in LAYER_UNITS.items():
        if unit == "count":
            assert first[name] == second[name], name


def test_check_that_breaks_reports_incorrect():
    def broken_check(outputs, inputs):
        return outputs.no_such_field  # a malformed output, not a CheckFailed

    spec = SimpleNamespace(setup=lambda mods, seed: None, run=lambda mods, inputs, rnd: (),
                           check=broken_check, work=lambda inputs: {})
    result = run_round(spec, 1)
    assert result.check_error.startswith("AttributeError")


def test_missing_program_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "tower-p2", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# the independent arithmetic
# ---------------------------------------------------------------------------


def test_plain_integer_arithmetic():
    assert checks.prime_factors(2**61 - 2) == [2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321]
    assert checks.gf2_order_of_x(0b111) == 3
    assert checks.gf2_is_irreducible(0b1011) and not checks.gf2_is_irreducible(0b101)
    assert [checks.necklace_count(2, m) for m in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert checks.multiplicative_order(2, 7) == 3
    assert checks.closed_form_probability(7, 3) == checks.Fraction(2, 3)
    assert checks.closed_form_probability(7, 4) == 0  # 7 = 3 mod 4
    assert checks.closed_form_probability(5, 3) == 0  # 3 does not divide 4


def test_theorems_on_the_towers():
    assert checks.p2_member_irreducible(0b111, 3**7)
    assert not checks.p2_member_irreducible(0b111, 2)  # 2 does not divide ord = 3
    assert checks.is_binomial_irreducible(WORD_P, -2, 7442)
    assert not checks.is_binomial_irreducible(WORD_P, -2, 3)


# ---------------------------------------------------------------------------
# corrupted outputs are rejected
# ---------------------------------------------------------------------------


def small_fields_outputs():
    spec = SMALL["small-fields"]
    mods = workloads.fresh_import()
    inputs = spec.setup(mods, 1)
    outputs = spec.run(mods, inputs, Round())
    spec.check(outputs, inputs)
    return spec, inputs, outputs


def test_census_count_off_by_one_is_rejected():
    spec, inputs, (census, samples, sweep) = small_fields_outputs()
    i = next(i for i, r in enumerate(census) if r.irreducible_count > 0)
    census[i] = type(census[i])(census[i].q, census[i].irreducible_count + 1,
                                census[i].total, census[i].convention)
    with pytest.raises(checks.CheckFailed, match="census"):
        spec.check((census, samples, sweep), inputs)


def test_monte_carlo_estimate_far_off_is_rejected():
    spec, inputs, (census, samples, sweep) = small_fields_outputs()
    mc = samples[0]
    far = mc.successes + 10 * int(mc.trials**0.5) + 10
    samples[0] = type(mc)(mc.estimate, mc.stderr, min(far, mc.trials), mc.trials, mc.modulus)
    with pytest.raises(checks.CheckFailed, match="Monte Carlo"):
        spec.check((census, samples, sweep), inputs)


def test_monte_carlo_with_fewer_trials_is_rejected():
    spec, inputs, (census, samples, sweep) = small_fields_outputs()
    samples[1] = dataclasses.replace(samples[1], trials=samples[1].trials - 1)
    with pytest.raises(checks.CheckFailed, match="requested"):
        spec.check((census, samples, sweep), inputs)


def test_criterion_oracle_disagreement_is_rejected():
    spec, inputs, (census, samples, sweep) = small_fields_outputs()
    fast, rabin, trial = sweep[0]
    sweep[0] = (not fast, rabin, trial)
    with pytest.raises(checks.CheckFailed, match="verdicts differ"):
        spec.check((census, samples, sweep), inputs)


def test_wrong_enumeration_count_is_rejected():
    spec, inputs, outputs = small_fields_outputs()
    key = next(iter(inputs.irreducibles))
    inputs.irreducibles[key] = inputs.irreducibles[key][1:]
    with pytest.raises(checks.CheckFailed, match="enumerated"):
        spec.check(outputs, inputs)


def tower_outputs(name):
    spec = SMALL[name]
    mods = workloads.fresh_import()
    b0 = spec.setup(mods, 1)
    rnd = Round()
    outputs = spec.run(mods, b0, rnd)
    assert rnd.failed == 0
    spec.check(outputs, b0)
    return spec, mods, b0, list(outputs)


def test_tampered_residue_value_is_rejected():
    spec, mods, b0, outputs = tower_outputs("tower-p2")
    cert = outputs[0]
    doc = cert.to_json_dict()
    result = doc["steps"][-1]["prime_tests"][0]["result"]
    result[0] = str((int(result[0]) + 1) % 2)
    tampered = mods.criterion.TowerCertificate.from_json_dict(doc)
    # a certificate changed in its round trip...
    outputs[1] = tampered
    with pytest.raises(checks.CheckFailed, match="round trip"):
        spec.check(outputs, b0)
    # ...or one that replay rejects...
    outputs[1] = cert
    outputs[4] = spec.replay(mods, tampered)
    with pytest.raises(checks.CheckFailed, match="replay rejected"):
        spec.check(outputs, b0)
    # ...or one that the program generated and replays consistently
    outputs[:2] = tampered, tampered
    outputs[4] = True
    with pytest.raises(checks.CheckFailed, match="residue value"):
        spec.check(outputs, b0)


def test_tampered_word_size_residue_is_rejected():
    spec, mods, b0, outputs = tower_outputs("tower-wordp")
    doc = outputs[0].to_json_dict()
    doc["steps"][0]["prime_tests"][0]["result"][0] = "3"
    tampered = mods.criterion.TowerCertificate.from_json_dict(doc)
    outputs[:2] = tampered, tampered
    with pytest.raises(checks.CheckFailed, match="residue value"):
        spec.check(outputs, b0)


@pytest.mark.parametrize("name", ["tower-p2", "tower-wordp"])
def test_wrong_final_polynomial_is_rejected(name):
    spec, mods, b0, outputs = tower_outputs(name)
    final = outputs[2]
    coeffs = list(final.coeffs)
    coeffs[1] = 1
    outputs[2] = outputs[3] = mods.ff.Poly(final.field, coeffs)
    with pytest.raises(checks.CheckFailed, match="final polynomial"):
        spec.check(outputs, b0)


def test_oracle_rejecting_a_certified_member_is_rejected():
    spec, mods, b0, outputs = tower_outputs("tower-wordp")
    degree, _ = outputs[5]
    outputs[5] = (degree, False)
    with pytest.raises(checks.CheckFailed, match="oracle finds"):
        spec.check(outputs, b0)


def test_tower_stopped_a_step_early_is_rejected(monkeypatch):
    spec = SMALL["tower-p2"]
    mods = workloads.fresh_import()
    grow_tower = mods.criterion.grow_tower
    monkeypatch.setattr(mods.criterion, "grow_tower",
                        lambda b0, schedule: grow_tower(b0, schedule[:-1]))
    b0 = spec.setup(mods, 1)
    rnd = Round()
    outputs = spec.run(mods, b0, rnd)
    assert rnd.failed == 0
    with pytest.raises(checks.CheckFailed, match="final degree"):
        spec.check(outputs, b0)


def test_confirming_another_member_is_rejected():
    spec, mods, b0, outputs = tower_outputs("tower-p2")
    degree, irreducible = outputs[5]
    outputs[5] = (degree // 3, irreducible)
    with pytest.raises(checks.CheckFailed, match="confirmed a member of degree"):
        spec.check(outputs, b0)


def test_extra_prime_test_in_a_p2_step_is_rejected():
    spec, mods, b0, outputs = tower_outputs("tower-p2")
    cert = outputs[0]
    step = dataclasses.replace(cert.steps[0], prime_tests=cert.steps[0].prime_tests * 2)
    cert = dataclasses.replace(cert, steps=(step,) + cert.steps[1:])
    outputs[:2] = cert, cert
    with pytest.raises(checks.CheckFailed, match="2 prime tests"):
        spec.check(outputs, b0)
