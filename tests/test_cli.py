"""Command-line interface: exit codes, canonical reports, golden bytes."""

import contextlib
import io
import itertools
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiles
from sealedbid import simulate
from sealedbid.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_INVALID,
    EXIT_PASS,
    _parse_policies,
    build_parser,
    dispatch,
    load_instance,
)
from sealedbid.core import InvalidInstanceError, standard_policies
from sealedbid.reporting import canonical_json
from sealedbid.seeding import mix64


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def instance_path(tmp_path):
    return write_doc(tmp_path, "instance.json", {"valuations": [3, 6, 4], "bids": [3, 5, 4]})


@pytest.fixture
def config_path(tmp_path):
    return write_doc(tmp_path, "config.json", {
        "n_bidders": 3, "n_rounds": 50, "value_low": 0, "value_high": 9, "seed": 7,
    })


class TestLoadInstance:
    def test_well_formed(self, instance_path):
        instance = load_instance(instance_path)
        assert instance.n_bidders == 3

    def test_single_bidder(self, tmp_path):
        path = write_doc(tmp_path, "one.json", {"valuations": [3], "bids": [3]})
        with pytest.raises(InvalidInstanceError) as info:
            load_instance(path)
        assert any("N >= 2 required" in v for v in info.value.violations)

    def test_negative_tick(self, tmp_path):
        path = write_doc(tmp_path, "neg.json", {"valuations": [3, 6], "bids": [-1, 2]})
        with pytest.raises(InvalidInstanceError) as info:
            load_instance(path)
        assert any("negative tick" in v for v in info.value.violations)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidInstanceError) as info:
            load_instance(str(path))
        assert any("parse failure" in v for v in info.value.violations)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInstanceError):
            load_instance(str(tmp_path / "absent.json"))


class TestExitCodes:
    def test_dominance_second_price_passes(self, capsys):
        code = dispatch(["dominance", "--n", "2", "--ticks", "4", "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report["verdict"] == "pass"
        assert report["vacuous"] is False

    def test_dominance_first_price_fails_with_counterexample(self, capsys):
        code = dispatch([
            "dominance", "--n", "2", "--ticks", "4",
            "--rule", "first-price", "--format=json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_FAIL
        assert report["verdict"] == "fail"
        assert report["counterexample"]["deviation_utility"] > report["counterexample"]["truthful_utility"]

    def test_validate_length_mismatch(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json", {"valuations": [3, 6], "bids": [3]})
        code = dispatch(["validate", path, "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_INVALID
        assert report["valid"] is False
        assert any("length mismatch" in v for v in report["violations"])

    def test_validate_lists_every_violation_of_non_integer_ticks(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json", {"valuations": [1.5, 2, -3], "bids": [1, 2]})
        code = dispatch(["validate", path, "--format=json"])
        assert code == EXIT_INVALID
        assert json.loads(capsys.readouterr().out)["violations"] == [
            "length mismatch (3 valuations vs 2 bids)",
            "non-integer tick (valuations[0] = 1.5)",
            "negative tick (valuations[2] = -3)",
        ]

    def test_validate_reports_a_non_array_field_beside_tick_faults(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json", {"valuations": [1.5], "bids": "x"})
        code = dispatch(["validate", path, "--format=json"])
        assert code == EXIT_INVALID
        assert json.loads(capsys.readouterr().out)["violations"] == [
            "non-integer tick (valuations[0] = 1.5)",
            "missing or non-array field 'bids'",
        ]

    def test_validate_good_instance(self, instance_path, capsys):
        code = dispatch(["validate", instance_path, "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report == {"valid": True, "violations": []}

    def test_unknown_flag(self, capsys):
        code = dispatch(["dominance", "--frobnicate"])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == ""
        assert "usage" in captured.err.lower()

    @pytest.mark.parametrize("argv", [
        ["validate", "{instance}", "--budget", "-7"],
        ["classify", "{instance}", "--bidder", "0", "--deviation", "7", "--budget", "-3"],
        ["validate", "{instance}", "--seed", "5"],
    ], ids=["validate-budget", "classify-budget", "validate-seed"])
    def test_a_flag_the_subcommand_never_reads_is_refused(self, instance_path, capsys, argv):
        code = dispatch([arg.format(instance=instance_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == ""
        assert "usage" in captured.err.lower()

    def test_unknown_subcommand(self):
        assert dispatch(["conquer"]) == EXIT_INVALID

    def test_no_subcommand(self):
        assert dispatch([]) == EXIT_INVALID

    def test_budget_exceeded(self, capsys):
        code = dispatch(["dominance", "--n", "3", "--ticks", "4", "--budget", "100"])
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET
        assert captured.out == ""
        assert "budget" in captured.err

    @pytest.mark.parametrize("command", ["dominance", "falsify"])
    def test_negative_tick_bound_is_invalid(self, command, capsys):
        code = dispatch([command, "--ticks", "-1", "--format=json"])
        assert code == EXIT_INVALID
        assert capsys.readouterr().out == ""

    def test_negative_budget_is_invalid(self, capsys):
        code = dispatch(["dominance", "--budget", "-5", "--format=json"])
        assert code == EXIT_INVALID
        assert capsys.readouterr().out == ""

    def test_vast_tick_bound_exceeds_budget(self, capsys):
        code = dispatch(["dominance", "--n", "2", "--ticks", str(10**20)])
        assert code == EXIT_BUDGET
        assert capsys.readouterr().out == ""

    def test_vast_valuation_grid_exceeds_budget(self, tmp_path, capsys):
        path = write_doc(tmp_path, "big.json", {"valuations": [10**21, 3], "bids": [4, 3]})
        code = dispatch(["check", path, "--deviations=grid"])
        assert code == EXIT_BUDGET
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["validate", "check", "simulate"])
    def test_deeply_nested_document_is_invalid(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        code = dispatch([command, str(path), "--format=json"])
        out = capsys.readouterr().out
        assert code == EXIT_INVALID
        if command == "validate":
            assert json.loads(out)["valid"] is False
        else:
            assert out == ""

    @pytest.mark.parametrize("command", ["validate", "check", "simulate"])
    @pytest.mark.parametrize("content", [
        b'{"valuations": [3, 6], "bids": [3, \xff]}',
        pytest.param(
            b'{"valuations": [' + b"9" * 4301 + b', 6], "bids": [3, 5]}',
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                     reason="int has no digit cap")),
    ], ids=["non-utf8", "vast-int"])
    def test_an_undecodable_document_is_a_parse_failure_of_its_path(
            self, command, content, tmp_path, capsys):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        code = dispatch([command, str(path), "--format=json"])
        out, err = capsys.readouterr()
        assert code == EXIT_INVALID
        if command == "validate":
            [violation] = json.loads(out)["violations"]
            assert violation.startswith(f"parse failure in {path}: ")
        else:
            assert out == "" and err.startswith(f"error: parse failure in {path}: ")

    def test_unrenderable_report_is_invalid(self, tmp_path, capsys):
        # M + 1 of a 4300-digit bid has more digits than int -> str allows
        top = int("9" * 4300)
        path = write_doc(tmp_path, "huge.json", {"valuations": [top, 0], "bids": [top, 3]})
        code = dispatch(["check", path, "--rule", "first-price", "--format=json"])
        assert code == EXIT_INVALID
        assert capsys.readouterr().out == ""

    def test_unknown_policy_name(self, instance_path, capsys):
        code = dispatch(["check", instance_path, "--policies", "coin-flip"])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: unknown policy 'coin-flip'; "
            "expected any of first-index, last-index, seeded, explicit\n"
        )


    def test_seed_flag_beside_an_unseeded_policy_is_accepted(self, instance_path, capsys):
        for argv in (["check", instance_path], ["dominance"]):
            assert dispatch([*argv, "--policies", "first-index", "--seed", "9"]) == EXIT_PASS

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("argv", [
        ["check", "{instance}", "--policies", "first-index"],
        ["classify", "{instance}", "--bidder", "0", "--deviation", "2", "--policy", "last-index"],
        ["dominance", "--n", "2", "--ticks", "1", "--policies", "first-index"],
        ["falsify", "--n-max", "2", "--ticks", "1", "--policies", "explicit"],
    ], ids=lambda argv: argv[0])
    def test_an_out_of_range_seed_is_refused_beside_unseeded_policies(
            self, instance_path, argv, seed, capsys):
        argv = [instance_path if arg == "{instance}" else arg for arg in argv]
        assert dispatch([*argv, f"--seed={seed}"]) == EXIT_INVALID
        assert capsys.readouterr() == ("", f"error: seed {seed} outside unsigned 64-bit range\n")


class TestBudgetRefusedBeforeWork:
    def test_check_honours_budget_on_a_vast_grid(self, instance_path, evaluations, capsys):
        start = time.perf_counter()
        code = dispatch([
            "check", instance_path, "--deviations=grid",
            "--grid-max", "100000000", "--budget", "10",
        ])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        assert capsys.readouterr().out == ""
        assert evaluations.profiles == []

    def test_dominance_refused_without_an_outcome_call(self, evaluations, capsys):
        code = dispatch(["dominance", "--n", "4", "--ticks", "12", "--budget", "300000"])
        assert code == EXIT_BUDGET
        assert capsys.readouterr().out == ""
        assert evaluations.profiles == []


class TestCheck:
    def test_truthful_instance_passes(self, instance_path, capsys):
        code = dispatch(["check", instance_path, "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report["verdict"] == "pass"

    def test_winning_only_grid_is_vacuous(self, tmp_path, capsys):
        # deviations above every opposing bid starve the losing cases
        path = write_doc(tmp_path, "two.json", {"valuations": [1, 0], "bids": [1, 0]})
        code = dispatch([
            "check", path, "--deviations=grid",
            "--grid-min", "2", "--grid-max", "4", "--format=json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_FAIL
        assert report["verdict"] == "pass"
        assert report["vacuous"] is True
        assert report["case_counts"]["win-lose"] == 0
        assert report["case_counts"]["lose-lose"] == 0

    def test_full_grid_is_not_vacuous(self, tmp_path, capsys):
        path = write_doc(tmp_path, "two.json", {"valuations": [1, 0], "bids": [1, 0]})
        code = dispatch(["check", path, "--deviations=grid", "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report["vacuous"] is False

    def test_seventeen_bidders_outgrow_the_default_explicit_policy(self, tmp_path, evaluations,
                                                                   capsys):
        # The covering table has 2^N - 1 entries and stops at N = 16.
        path = write_doc(tmp_path, "seventeen.json", {"valuations": [1] * 17, "bids": [1] * 17})
        assert dispatch(["check", path]) == EXIT_INVALID
        assert capsys.readouterr() == ("", "error: covering table supports 2 <= N <= 16 "
                                       "(got 17)\n")
        assert evaluations.profiles == []
        assert dispatch(["check", path, "--policies", "first-index,last-index,seeded"]) == EXIT_PASS

    # Known gap: the adversarial pairing takes its min and max over the listed
    # policies' picks only.  Bidder 1 wins at its value for utility 0; bidding
    # one tick less ties every bid, and a tie-break that picks it gives it 1,
    # but no default policy awards that tie to bidder 1.
    @pytest.mark.xfail(strict=True, reason="the pairing does not range over every "
                                           "argmax-respecting tie-break")
    @pytest.mark.parametrize("deviations", ["critical", "grid"])
    @pytest.mark.parametrize("ticks", [[0, 1, 0, 0], [1, 2, 1, 1]])
    def test_a_first_price_tie_no_listed_policy_breaks_to_the_deviator_fails(
            self, tmp_path, ticks, deviations, capsys):
        path = write_doc(tmp_path, "tied.json", {"valuations": ticks, "bids": ticks})
        assert dispatch(["check", path, "--rule", "first-price",
                         "--deviations", deviations]) == EXIT_FAIL

    def test_empty_grid_rejected(self, instance_path, capsys):
        code = dispatch([
            "check", instance_path, "--deviations=grid",
            "--grid-min", "9", "--grid-max", "4",
        ])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("flag", ["--grid-min", "--grid-max"])
    def test_a_grid_flag_without_grid_deviations_is_refused(self, instance_path, flag, capsys):
        # The critical deviations read neither bound, so a bound given is refused.
        assert dispatch(["check", instance_path, flag, "-5"]) == EXIT_INVALID
        assert capsys.readouterr() == ("", "error: --grid-min and --grid-max need "
                                       "--deviations grid\n")


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_default_policies_are_the_standard_list(n, seed):
    # core.standard_policies owns the list: --policies reads its default off it.
    default = build_parser().parse_args(["dominance"]).policies
    assert _parse_policies(default, seed, n) == standard_policies(n, seed)


class TestClassify:
    # instance: valuations (3, 6, 4), bids (3, 5, 4); bidder 1 wins at 5
    @pytest.mark.parametrize("bids, deviation, case, winners, utilities", [
        ((3, 5, 4), 2, "win-lose", (1, 2), (2, 0)),
        ((3, 5, 4), 5, "win-win", (1, 1), (2, 2)),
        ((3, 2, 4), 9, "lose-win", (2, 1), (0, 2)),
        ((3, 2, 4), 1, "lose-lose", (2, 2), (0, 0)),
    ], ids=["win-lose", "win-win", "lose-win", "lose-lose"])
    def test_reports_case_and_utilities(self, tmp_path, capsys, bids, deviation, case,
                                        winners, utilities):
        path = write_doc(tmp_path, "instance.json", {"valuations": [3, 6, 4], "bids": bids})
        code = dispatch([
            "classify", path, "--bidder", "1",
            "--deviation", str(deviation), "--format=json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report["case"] == case
        assert (report["winner_original"], report["winner_deviation"]) == winners
        assert (report["utility_original"], report["utility_deviation"]) == utilities

    def test_bidder_out_of_range(self, instance_path, capsys):
        code = dispatch(["classify", instance_path, "--bidder", "7", "--deviation", "2"])
        assert code == EXIT_INVALID

    def test_negative_deviation_is_invalid(self, instance_path, capsys):
        code = dispatch(["classify", instance_path, "--bidder", "0", "--deviation", "-5"])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == ""
        assert "negative tick" in captured.err

    def test_two_policies_are_refused(self, instance_path, capsys):
        code = dispatch(["classify", instance_path, "--bidder", "1", "--deviation", "2",
                         "--policy", "first-index,last-index"])
        assert code == EXIT_INVALID
        assert capsys.readouterr() == ("", "error: exactly one policy expected here\n")


class TestSimulate:
    def test_report_and_csv(self, config_path, tmp_path, capsys):
        csv_path = tmp_path / "rounds.csv"
        code = dispatch(["simulate", config_path, "--csv", str(csv_path), "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report["rounds"] == 50
        assert report["efficiency_rate"] == "1/1"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "round,valuations,bids,winner,price"
        assert len(lines) == 51

    def test_csv_run_plays_each_round_once(self, config_path, tmp_path, evaluations, capsys):
        code = dispatch(["simulate", config_path, "--csv", str(tmp_path / "rounds.csv")])
        assert code == EXIT_PASS
        # One pass samples every round once; the 10^3-profile space is tabled,
        # so outcome runs once per distinct (truthful) bid profile: 47 of 50.
        profiles = {tuple(mix64(7, r, b) % 10 for b in range(3)) for r in range(50)}
        assert tiles(evaluations.sampled, 50, simulate.SAMPLE_BLOCK)
        assert len(evaluations.profiles) == len(profiles) == 47

    def test_bad_csv_path_fails_before_any_round(self, config_path, tmp_path, evaluations,
                                                 capsys):
        csv_path = tmp_path / "no" / "such" / "x.csv"
        code = dispatch(["simulate", config_path, "--csv", str(csv_path)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == ""
        assert "x.csv" in captured.err
        assert evaluations.profiles == []

    def test_a_bid_past_the_digit_cap_is_refused_before_any_round(self, tmp_path, evaluations,
                                                                  capsys):
        path = write_doc(tmp_path, "overbid.json", {
            "n_bidders": 2, "n_rounds": 3, "value_low": 0, "value_high": 1,
            "rule": "first-price", "strategy": {"kind": "overbid", "delta": 10**4300 - 1},
        })
        csv_path = tmp_path / "rounds.csv"
        assert dispatch(["simulate", path, "--csv", str(csv_path)]) == EXIT_INVALID
        assert capsys.readouterr() == ("", "error: tick too large "
                                       "(strategy.bid(value_high) + 1 has more than 4300 digits)\n")
        assert not csv_path.exists()
        assert evaluations.profiles == []

    def test_a_span_above_2_to_the_64_is_refused_before_any_round(self, tmp_path,
                                                                evaluations, capsys):
        path = write_doc(tmp_path, "wide.json", {
            "n_bidders": 3, "n_rounds": 5, "value_low": 5, "value_high": 2**64 + 11,
        })
        csv_path = tmp_path / "rounds.csv"
        assert dispatch(["simulate", path, "--csv", str(csv_path)]) == EXIT_INVALID
        assert capsys.readouterr() == ("", "error: value span value_high - value_low + 1 "
                                       f"exceeds 2**64 (value_low 5, value_high {2**64 + 11})\n")
        assert not csv_path.exists()
        assert evaluations.profiles == []

    def test_a_report_past_the_digit_cap_is_refused_before_any_round(self, tmp_path,
                                                                     evaluations, capsys):
        # Every bid + 1 prints in 4300 digits, but the mean revenue's numerator, a sum
        # of seven such prices, would not: refused at construction, not after the rounds.
        path = write_doc(tmp_path, "overbid.json", {
            "n_bidders": 2, "n_rounds": 7, "value_low": 0, "value_high": 1,
            "rule": "first-price", "strategy": {"kind": "overbid", "delta": 9 * 10**4299},
        })
        csv_path = tmp_path / "rounds.csv"
        assert dispatch(["simulate", path, "--csv", str(csv_path)]) == EXIT_INVALID
        assert capsys.readouterr() == ("", "error: tick too large (2 * n_rounds * max(value_high, "
                                       "strategy.bid(value_high)) + 1 has more than 4300 digits)\n")
        assert not csv_path.exists()
        assert evaluations.profiles == []

    def test_a_one_round_config_at_the_largest_admitted_bid_renders(self, tmp_path, capsys):
        largest = 5 * 10**4299 - 1  # 2 * 1 * largest + 1 prints in 4300 digits
        doc = {"n_bidders": 2, "n_rounds": 1, "value_low": 0, "value_high": 0,
               "rule": "first-price", "strategy": {"kind": "overbid", "delta": largest}}
        path = write_doc(tmp_path, "largest.json", doc)
        assert dispatch(["simulate", path, "--format=json"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert (report["mean_revenue"], report["mean_winner_utility"]) == (
            f"{largest}/1", f"-{largest}/1")
        doc["strategy"]["delta"] += 1
        assert dispatch(["simulate", write_doc(tmp_path, "past.json", doc)]) == EXIT_INVALID

    def test_budget_refusal_leaves_the_csv_file_alone(self, config_path, tmp_path,
                                                     evaluations, capsys):
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier rows\n", encoding="utf-8")
        missing = tmp_path / "missing.csv"
        for csv_path in (kept, missing):
            code = dispatch(["simulate", config_path, "--csv", str(csv_path), "--budget", "5"])
            assert code == EXIT_BUDGET
        assert capsys.readouterr().out == ""
        assert kept.read_text(encoding="utf-8") == "earlier rows\n"
        assert not missing.exists()
        assert evaluations.profiles == []

    @pytest.mark.parametrize("value_high, seed", [(7, 9), (8, 79)], ids=["tabled", "untabled"])
    def test_a_faulting_round_exits_2_after_the_earlier_blocks(self, tmp_path, capsys,
                                                               value_high, seed):
        # The policy lacks the four-way tie, first drawn in the second block
        # (round 419 tabled, 324 untabled): the first block's rows stay written.
        choice = {",".join(map(str, ties)): ties[0] for size in range(1, 4)
                  for ties in itertools.combinations(range(4), size)}
        path = write_doc(tmp_path, "faulting.json", {
            "n_bidders": 4, "n_rounds": 3 * simulate.SAMPLE_BLOCK, "value_low": 0,
            "value_high": value_high, "seed": seed,
            "policy": {"kind": "explicit", "choice": choice},
        })
        csv_path = tmp_path / "rounds.csv"
        assert dispatch(["simulate", path, "--csv", str(csv_path)]) == EXIT_INVALID == 2
        assert capsys.readouterr() == (
            "", "error: explicit tie-break has no choice for argmax set [0, 1, 2, 3]\n")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + simulate.SAMPLE_BLOCK
        assert lines[-1].startswith(f"{simulate.SAMPLE_BLOCK - 1},")

    def test_seed_flag_overrides_config(self, config_path, capsys):
        dispatch(["simulate", config_path, "--seed", "99", "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 99

    MALFORMED_CONFIGS = {
        "one-bidder": {"n_bidders": 1},
        "conflicting-explicit-choices": {
            "policy": {"kind": "explicit", "choice": {"0,1": 0, "1,0": 1}}},
        "policy-kind-list": {"policy": {"kind": [1]}},
        "policy-kind-object": {"policy": {"kind": {}}},
        "policy-kind-null": {"policy": {"kind": None}},
        "policy-kind-missing": {"policy": {}},
        "strategy-kind-list": {"strategy": {"kind": [1]}},
        "strategy-kind-object": {"strategy": {"kind": {}}},
        "strategy-kind-null": {"strategy": {"kind": None}},
        "strategy-kind-missing": {"strategy": {}},
        "policy-seed-bool": {"policy": {"kind": "seeded", "seed": True}},
        "config-seed-bool": {"seed": True},
        "overbid-delta-string": {"strategy": {"kind": "overbid", "delta": "2"}},
        "shade-without-numerator": {"strategy": {"kind": "shade", "denominator": 4}},
        "strategy-number": {"strategy": 5},
        "policy-list": {"policy": [1]},
        "rule-list": {"rule": [1]},
        "rule-unknown": {"rule": "third-price"},
    }

    @pytest.mark.parametrize("fields", MALFORMED_CONFIGS.values(), ids=list(MALFORMED_CONFIGS))
    def test_invalid_config(self, tmp_path, capsys, fields):
        path = write_doc(tmp_path, "bad.json", {
            "n_bidders": 2, "n_rounds": 5, "value_low": 0, "value_high": 4, **fields,
        })
        assert dispatch(["simulate", path, "--format=json"]) == EXIT_INVALID == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


    @pytest.mark.parametrize("fields, key", [
        ({"sed": 42, "polcy": {"kind": "seeded", "seed": 5}}, "config field 'sed'"),
        ({"policy": {"kind": "first-index", "seed": 9, "choice": 1}}, "first-index field 'seed'"),
        ({"policy": {"kind": "explicit", "choice": {"0,1": 0}, "seed": 1}},
         "explicit field 'seed'"),
        ({"strategy": {"kind": "overbid", "delta": 1, "delat": 2}}, "overbid field 'delat'"),
    ], ids=["config", "first-index", "explicit", "overbid"])
    def test_unknown_key_is_invalid(self, tmp_path, capsys, fields, key):
        path = write_doc(tmp_path, "bad.json", {
            "n_bidders": 3, "n_rounds": 50, "value_low": 0, "value_high": 9, **fields,
        })
        assert dispatch(["simulate", path, "--format=json"]) == EXIT_INVALID
        assert capsys.readouterr() == ("", f"error: unknown {key}\n")


class TestReportFormat:
    def test_json_round_trip_is_byte_identical(self, capsys):
        dispatch(["dominance", "--n", "2", "--ticks", "3", "--format=json"])
        text = capsys.readouterr().out
        assert canonical_json(json.loads(text)) == text

    @pytest.mark.parametrize("doc, fault", [
        ({"a": 1.5}, "float at $.a breaks canonical output; use ticks or p/q"),
        ({1: 2}, "non-string key 1 at $"),
    ], ids=["float", "int-key"])
    def test_a_document_without_one_canonical_form_is_refused(self, doc, fault):
        with pytest.raises(TypeError) as info:
            canonical_json(doc)
        assert str(info.value) == fault

    def test_same_argv_same_bytes(self, capsys):
        argv = ["dominance", "--n", "2", "--ticks", "3", "--format=json"]
        dispatch(argv)
        first = capsys.readouterr().out
        dispatch(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_golden_dominance_report(self, capsys):
        dispatch(["dominance", "--n", "2", "--ticks", "2", "--format=json"])
        assert capsys.readouterr().out == (
            '{"case_counts":{"lose-lose":98,"lose-win":37,"win-lose":37,'
            '"win-win":98},"evaluated_count":270,"vacuous":false,"verdict":"pass"}\n'
        )

    def test_golden_falsify_report(self, capsys):
        dispatch([
            "falsify", "--rule", "first-price", "--n-max", "2",
            "--ticks", "4", "--format=json",
        ])
        assert capsys.readouterr().out == (
            '{"counterexample":{"bidder":0,"bids":[1,0],"deviation_bid":0,'
            '"deviation_utility":1,"policy":"first-index","truthful_utility":0,'
            '"valuations":[1,0]},"found":true}\n'
        )

    def test_table_format(self, capsys):
        code = dispatch(["dominance", "--n", "2", "--ticks", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "verdict" in out
        assert "case_counts.win-win" in out
        assert "{" not in out


# Fuzzed argv and documents: dispatch answers every input with an exit code
# and at most one canonical report, and never raises.

COMMON_FLAGS = ["--format"]
COMMAND_FLAGS = {
    "validate": [],
    "check": ["--seed", "--policies", "--rule", "--deviations", "--grid-min", "--grid-max",
              "--no-adversarial"],
    "classify": ["--seed", "--bidder", "--deviation", "--policy", "--rule"],
    "dominance": ["--seed", "--n", "--ticks", "--policies", "--rule", "--no-adversarial"],
    "falsify": ["--seed", "--n-max", "--ticks", "--policies", "--rule", "--no-adversarial"],
    "simulate": ["--seed", "--csv"],
    "conquer": [],
}
FILE_COMMANDS = {"validate", "check", "classify", "simulate"}
BUDGETED_COMMANDS = {"check", "dominance", "falsify", "simulate"}

small_ints = st.integers(min_value=-2, max_value=6).map(str)
flag_values = {
    "--n": st.integers(min_value=-1, max_value=4).map(str),
    "--n-max": st.integers(min_value=-1, max_value=4).map(str),
    "--ticks": st.integers(min_value=-2, max_value=6).map(str),
    "--bidder": small_ints,
    "--deviation": small_ints,
    "--grid-min": small_ints,
    "--grid-max": st.sampled_from(["-1", "0", "3", "9", "100000000", str(10**21)]),
    "--seed": st.sampled_from(["0", "7", "-1", str(2**64)]),
    "--policies": st.sampled_from(
        ["first-index", "last-index,seeded", "explicit", "first-index,coin", ""]),
    "--policy": st.sampled_from(["first-index", "seeded", "explicit", "coin"]),
    "--rule": st.sampled_from(["second-price", "first-price", "third-price"]),
    "--deviations": st.sampled_from(["critical", "grid", "all"]),
    "--format": st.sampled_from(["json", "table", "yaml"]),
}
# Malformed tokens; none starts like --help, which prints usage to stdout.
junk = st.sampled_from(["--frobnicate", "-x", "--", "--n", "3.5", ""]) | st.text(
    max_size=5).filter(lambda token: not token.startswith("-"))

tick = st.one_of(
    st.integers(min_value=-1, max_value=9),
    st.sampled_from([10**21, True, 1.5, "3", None]),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(min_value=-10, max_value=10), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
instance_docs = st.fixed_dictionaries(
    {},
    optional={
        "valuations": st.lists(tick, max_size=5),
        "bids": st.lists(tick, max_size=5),
    },
)
config_docs = st.fixed_dictionaries(
    {
        "n_bidders": st.integers(min_value=-1, max_value=4),
        "n_rounds": st.integers(min_value=-1, max_value=400),
        "value_low": st.integers(min_value=-1, max_value=3),
        "value_high": st.sampled_from([0, 3, 9, 10**6, 10**30]),
    },
    optional={
        "rule": st.sampled_from(["second-price", "first-price", 3]),
        "strategy": st.sampled_from([
            {"kind": "truthful"}, {"kind": "shade", "numerator": 3, "denominator": 4},
            {"kind": "shade", "numerator": 5, "denominator": 4},
            {"kind": "overbid", "delta": 2}, {"kind": "overbid", "delta": -1}, [],
        ]),
        "policy": st.sampled_from([
            {"kind": "first-index"}, {"kind": "seeded", "seed": 3},
            {"kind": "explicit", "choice": {"0,1": 1}}, {"kind": "explicit", "choice": {"x": 0}},
            {"kind": "last-index"}, {"kind": "coin"},
        ]),
        "seed": st.sampled_from([0, 5, -1, 2**64, "7"]),
    },
)
documents = {
    "instance": instance_docs.map(json.dumps),
    "config": config_docs.map(json.dumps),
    "json": json_values.map(json.dumps),
    "malformed": st.sampled_from(["{not json", "", "[1, 2]", '{"valuations": [1]}']),
    "deep": st.just("[" * 200_000),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dispatch_answers_every_input(fuzz_dir, data):
    command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    if command in FILE_COMMANDS:
        kind = data.draw(st.sampled_from(sorted(documents) + ["missing", "none"]), label="doc")
        path = fuzz_dir / "doc.json"
        path.unlink(missing_ok=True)
        if kind in documents:
            path.write_text(data.draw(documents[kind]), encoding="utf-8")
        if kind != "none":
            argv.append(str(path))
    if command == "classify":
        argv += ["--bidder", data.draw(small_ints), "--deviation", data.draw(small_ints)]
    flags = COMMAND_FLAGS[command] + COMMON_FLAGS + ["junk"]
    for _ in range(data.draw(st.integers(min_value=0, max_value=5), label="options")):
        flag = data.draw(st.sampled_from(flags))
        if flag == "junk":
            argv.append(data.draw(junk))
        elif flag == "--csv":
            argv += ["--csv", str(fuzz_dir / "rounds.csv")]
        else:
            argv.append(flag)
            if flag in flag_values:
                argv.append(data.draw(flag_values[flag]))
    json_format = data.draw(st.booleans(), label="json")
    if json_format:
        argv.append("--format=json")
        json_format = "--" not in argv  # after a junk "--" it is a positional
    if command in BUDGETED_COMMANDS:
        argv += ["--budget", data.draw(st.integers(min_value=-1, max_value=2000).map(str))]

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INVALID, EXIT_BUDGET)
    text = out.getvalue()
    if json_format and text:
        assert text.count("\n") == 1
        assert text == canonical_json(json.loads(text))
