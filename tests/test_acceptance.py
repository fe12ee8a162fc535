"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every comparison below is exact (integers and rationals); there
are no tolerances anywhere.
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

from conftest import assert_case, bruteforce_minimal_counterexample, naive_rounds
from sealedbid.cli import EXIT_FAIL, dispatch
from sealedbid.core import AuctionInstance, FirstIndex, PaymentRule, outcome, standard_policies
from sealedbid.simulate import (
    ExperimentConfig,
    Shade,
    Truthful,
    compare_rules,
    run_experiment,
)
from sealedbid.verify import (
    CaseTag,
    Counterexample,
    check_instance,
    check_truthfulness,
    dominance_sweep,
    find_counterexample,
)

SECOND = PaymentRule.SECOND_PRICE
FIRST = PaymentRule.FIRST_PRICE


def verdict_line(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} - {detail}")
    return ok


def test_criterion_1_weak_dominance_sweep(vickrey_rows):
    failures = [row for row in vickrey_rows if not row.passed]
    ok = len(failures) == 0
    assert verdict_line(
        1, ok,
        f"second-price sweep N in {{2,3}}, ticks 0..4: "
        f"{len(vickrey_rows)} comparisons, {len(failures)} failures",
    ), failures[:3]


def test_criterion_2_four_case_assertions(vickrey_rows):
    violations = []
    for row in vickrey_rows:
        reason = assert_case(row.case, row)
        if reason is not None:
            violations.append((row, reason))
    ok = len(violations) == 0
    assert verdict_line(
        2, ok,
        f"per-case contracts over {len(vickrey_rows)} rows, "
        f"{len(violations)} violations",
    ), violations[:3]


def test_criterion_3_non_vacuity_and_vacuous_flip(tmp_path):
    # the standard second-price sweep, N in {2,3}, ticks 0..4, as its reports count it
    reports = [dominance_sweep(n_bidders, 4) for n_bidders in (2, 3)]
    counts = {tag: sum(report.case_counts[tag] for report in reports) for tag in CaseTag}
    full_ok = not any(report.vacuous for report in reports) and all(
        count > 0 for count in counts.values()
    )

    # restrict to deviations above every opposing bid: the losing cases must vanish
    instance = AuctionInstance((1, 0), (1, 0))
    winning_only = check_instance(instance, standard_policies(2), deviations=range(2, 5))
    lost = winning_only.case_counts[CaseTag.LOSE_LOSE] + winning_only.case_counts[CaseTag.WIN_LOSE]
    flipped = winning_only.vacuous and lost == 0

    # and end to end: a winning-only grid must exit 1
    path = tmp_path / "flip.json"
    path.write_text('{"valuations": [1, 0], "bids": [1, 0]}', encoding="utf-8")
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = dispatch([
            "check", str(path), "--deviations=grid",
            "--grid-min", "2", "--grid-max", "4", "--format=json",
        ])
    exit_ok = code == EXIT_FAIL and '"vacuous":true' in sink.getvalue()

    ok = full_ok and flipped and exit_ok
    assert verdict_line(
        3, ok,
        f"case counts {[counts[tag] for tag in sorted(CaseTag, key=lambda t: t.value)]} "
        f"all positive; winning-only restriction vacuous={flipped}, exit={code}",
    )


def test_criterion_4_minimal_counterexample_matches_oracle():
    oracle = bruteforce_minimal_counterexample(FIRST, 2, 4)
    found = find_counterexample(FIRST, 2, 4)
    frozen = Counterexample(
        valuations=(1, 0), bids=(1, 0), bidder=0, deviation_bid=0,
        policy="first-index", truthful_utility=0, deviation_utility=1,
    )
    ok = found == oracle == frozen
    assert verdict_line(
        4, ok, f"first-price minimal counterexample: search={found == oracle} "
        f"frozen={found == frozen}",
    ), (found, oracle)


def test_criterion_5_critical_set_equivalence():
    mismatches = []
    checked = 0
    for rule in (SECOND, FIRST):
        for n_bidders in (2, 3):
            policies = standard_policies(n_bidders)
            for others in product(range(7), repeat=n_bidders - 1):
                for v_i in range(7):
                    for bidder in range(n_bidders):
                        valuations = others[:bidder] + (v_i,) + others[bidder:]
                        critical = check_truthfulness(
                            valuations, others, bidder, policies, rule, "critical"
                        )
                        grid = check_truthfulness(
                            valuations, others, bidder, policies, rule, range(10)
                        )
                        checked += 1
                        if all(r.passed for r in critical) != all(r.passed for r in grid):
                            mismatches.append((rule.value, valuations, bidder))
    ok = len(mismatches) == 0
    assert verdict_line(
        5, ok,
        f"critical set vs grid 0..9 verdict parity on {checked} instances, "
        f"{len(mismatches)} mismatches",
    ), mismatches[:3]


def test_criterion_6_allocative_efficiency():
    policies = standard_policies(3)
    exhaustive_ok = all(
        values[outcome(values, policy, SECOND).winner] == max(values)
        for values in product(range(5), repeat=3)
        for policy in policies
    )
    rates = [
        run_experiment(ExperimentConfig(
            3, 200, 0, 9, SECOND, Truthful(), FirstIndex(), seed,
        )).efficiency_rate
        for seed in (0, 1, 7, 2**63, 2**64 - 1)
    ]
    simulated_ok = all(rate == 1 for rate in rates)
    ok = exhaustive_ok and simulated_ok
    assert verdict_line(
        6, ok,
        f"outcome's winner has a top valuation on 5^3 grid x {len(policies)} policies: "
        f"{exhaustive_ok}; simulated efficiency_rate == 1 on all seeds: {simulated_ok}",
    )


def test_criterion_7_simulation_determinism_and_exact_mean():
    config = ExperimentConfig(3, 10**4, 0, 9, SECOND, Truthful(), FirstIndex(), 42)
    report_a = run_experiment(config)
    report_b = run_experiment(config)
    identical = report_a == report_b
    total = sum(sorted(values)[-2] for values, _, _, _ in naive_rounds(config))
    exact = report_a.mean_revenue == Fraction(total, config.n_rounds)
    ok = identical and exact
    assert verdict_line(
        7, ok,
        f"bit-identical reports: {identical}; mean_revenue "
        f"{report_a.mean_revenue} equals recomputed second-highest mean: {exact}",
    )


def test_criterion_8_shading_lowers_revenue_per_round():
    truthful = ExperimentConfig(3, 10**4, 0, 9, SECOND, Truthful(), FirstIndex(), 2024)
    shaded = ExperimentConfig(3, 10**4, 0, 9, SECOND, Shade(1, 2), FirstIndex(), 2024)
    paired = compare_rules(truthful, shaded)
    never_exceeds = paired.revenue_diff_min >= 0
    strictly_positive_mean = paired.mean_revenue_diff > 0
    ok = never_exceeds and strictly_positive_mean
    assert verdict_line(
        8, ok,
        f"per-round revenue diff min {paired.revenue_diff_min} >= 0: {never_exceeds}; "
        f"mean diff {paired.mean_revenue_diff} > 0: {strictly_positive_mean}",
    )
