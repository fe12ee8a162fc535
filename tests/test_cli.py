"""Command-line interface: exit codes, canonical reports, golden bytes."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sealedbid import verify
from sealedbid.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_INVALID,
    EXIT_PASS,
    dispatch,
    load_instance,
)
from sealedbid.core import InvalidInstanceError
from sealedbid.reporting import canonical_json


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
        assert "unknown policy" in capsys.readouterr().err


class TestBudgetRefusedBeforeWork:
    @pytest.fixture
    def outcome_calls(self, monkeypatch):
        calls = []
        real = verify.outcome

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(verify, "outcome", counting)
        return calls

    def test_check_honours_budget_on_a_vast_grid(self, instance_path, outcome_calls, capsys):
        start = time.perf_counter()
        code = dispatch([
            "check", instance_path, "--deviations=grid",
            "--grid-max", "100000000", "--budget", "10",
        ])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        assert capsys.readouterr().out == ""
        assert outcome_calls == []

    def test_dominance_refused_without_an_outcome_call(self, outcome_calls, capsys):
        code = dispatch(["dominance", "--n", "4", "--ticks", "12", "--budget", "300000"])
        assert code == EXIT_BUDGET
        assert capsys.readouterr().out == ""
        assert outcome_calls == []


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

    def test_empty_grid_rejected(self, instance_path, capsys):
        code = dispatch([
            "check", instance_path, "--deviations=grid",
            "--grid-min", "9", "--grid-max", "4",
        ])
        assert code == EXIT_INVALID


class TestClassify:
    def test_reports_case_and_utilities(self, instance_path, capsys):
        code = dispatch([
            "classify", instance_path, "--bidder", "1",
            "--deviation", "2", "--format=json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report["case"] == "win-lose"
        assert report["winner_original"] == 1
        assert report["winner_deviation"] == 2
        assert report["utility_original"] == 2
        assert report["utility_deviation"] == 0

    def test_bidder_out_of_range(self, instance_path, capsys):
        code = dispatch(["classify", instance_path, "--bidder", "7", "--deviation", "2"])
        assert code == EXIT_INVALID


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

    def test_seed_flag_overrides_config(self, config_path, capsys):
        dispatch(["simulate", config_path, "--seed", "99", "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 99

    def test_invalid_config(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json", {"n_bidders": 1, "n_rounds": 5,
                                                "value_low": 0, "value_high": 4})
        code = dispatch(["simulate", path])
        assert code == EXIT_INVALID


class TestReportFormat:
    def test_json_round_trip_is_byte_identical(self, capsys):
        dispatch(["dominance", "--n", "2", "--ticks", "3", "--format=json"])
        text = capsys.readouterr().out
        assert canonical_json(json.loads(text)) == text

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

COMMON_FLAGS = ["--seed", "--format"]
COMMAND_FLAGS = {
    "validate": [],
    "check": ["--policies", "--rule", "--deviations", "--grid-min", "--grid-max",
              "--no-adversarial"],
    "classify": ["--bidder", "--deviation", "--policy", "--rule"],
    "dominance": ["--n", "--ticks", "--policies", "--rule", "--no-adversarial"],
    "falsify": ["--n-max", "--ticks", "--policies", "--rule", "--no-adversarial"],
    "simulate": ["--csv"],
    "conquer": [],
}
FILE_COMMANDS = {"validate", "check", "classify", "simulate"}

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
    argv += ["--budget", data.draw(st.integers(min_value=-1, max_value=2000).map(str))]

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INVALID, EXIT_BUDGET)
    text = out.getvalue()
    if json_format and text:
        assert text.count("\n") == 1
        assert text == canonical_json(json.loads(text))
