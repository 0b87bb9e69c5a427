"""The pair runner: numpy's linear percentiles, win counts and the claim's checks."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("runs", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.5]])
def test_percentile_is_numpys_linear(runs):
    for q in (0.25, 0.5, 0.75):
        assert bench_pairs.percentile(runs, q) == pytest.approx(np.percentile(runs, 100 * q))


def test_summarize_counts_wins_by_direction():
    lower = {"unit": "ms", "better": "lower"}
    s = bench_pairs.summarize(lower, [10.0, 12.0, 11.0], [9.0, 13.0, 10.0])
    assert s["change_wins"] == 2
    assert s["parent"]["median"] == 11.0 and s["change"]["median"] == 10.0
    assert s["median_change"] == round(-1 / 11, 4)
    assert s["parent_iqr"] == 1.0
    higher = dict(lower, better="higher")
    assert bench_pairs.summarize(higher, [10.0, 12.0, 11.0], [9.0, 13.0, 10.0])["change_wins"] == 1


METRICS = ["keys_per_s", "latency_p90_ms"]


@pytest.mark.parametrize(
    "claim",
    ["sort_cold", "sort_cold:", "audit:keys_per_s", "sort_cold:keys_per_sec", ":keys_per_s"],
)
def test_claim_is_checked_at_parse_time(claim):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(
            ["--number", "1", "--title", "t", "--run", "sort_cold=2", "--claim", claim], METRICS
        )


def test_claim_names_a_run_workload_and_metric():
    argv = ["--number", "1", "--title", "t", "--run", "sort_cold=2", "--run", "audit=1"]
    assert bench_pairs.parse_args(argv, METRICS).claim is None
    args = bench_pairs.parse_args(argv + ["--claim", "audit:latency_p90_ms"], METRICS)
    assert args.claim == ("audit", "latency_p90_ms")


PARENT = [8.0, 9.0, 9.0, 10.0, 10.0, 10.0, 10.0, 11.0, 11.0, 12.0]  # median 10, IQR 1.5


@pytest.mark.parametrize(
    "change, wins, holds",
    [
        ([13.0] * 9 + [7.0], 9, True),  # 9 of 10, and a median gain of 3
        ([13.0] * 8 + [7.0] * 2, 8, False),  # 8 of 10
        ([v + 1 for v in PARENT], 10, False),  # every pair, but a gain of 1
        (PARENT, 0, False),  # ties win for neither side
    ],
)
def test_judge_applies_the_gain_rule(change, wins, holds):
    higher = {"unit": "1/s", "better": "higher"}
    s = bench_pairs.summarize(higher, PARENT, change)
    assert bench_pairs.judge("w", "m", s) == {
        "workload": "w", "metric": "m", "pairs": 10, "change_wins": wins, "holds": holds
    }
    lower = dict(higher, better="lower")
    flipped = bench_pairs.summarize(lower, [-v for v in PARENT], [-v for v in change])
    assert bench_pairs.judge("w", "m", flipped)["holds"] is holds


BOUNDED = {
    "keys_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
    "peak_rss_mb": {"unit": "MB", "better": "lower", "bound": 0.1},
}
RUNS = {"parent": [100] * 10, "change": [100] * 10}


@pytest.mark.parametrize(
    "keys, rss, failed, found",
    [
        ([80.0] * 10, [10.5] * 10, [0] * 10, []),  # 20% and 5% worse: within both bounds
        ([70.0] * 10, [10.0] * 10, [0] * 10, ["keys_per_s"]),  # 30% fewer keys
        ([130.0] * 10, [11.5] * 10, [0] * 10, ["peak_rss_mb"]),  # 15% more memory
        ([70.0] * 5 + [130.0] * 5, [10.0] * 10, [0] * 10, []),  # the median reads 100
        ([100.0] * 10, [10.0] * 10, [0] * 9 + [1], ["failed_share"]),  # 1 in 1000 failed
        ([60.0] * 10, [12.0] * 10, [1] * 10, ["keys_per_s", "peak_rss_mb", "failed_share"]),
    ],
)
def test_regressions_apply_the_bound_rule(keys, rss, failed, found):
    parent_keys, parent_rss = [100.0] * 10, [10.0] * 10
    summaries = {
        "keys_per_s": bench_pairs.summarize(BOUNDED["keys_per_s"], parent_keys, keys),
        "peak_rss_mb": bench_pairs.summarize(BOUNDED["peak_rss_mb"], parent_rss, rss),
    }
    fails = {"parent": [0] * 10, "change": failed}
    assert bench_pairs.regressions(BOUNDED, summaries, RUNS, fails) == found
    # a parent that failed as often leaves the share alone
    same = {"parent": failed, "change": failed}
    assert "failed_share" not in bench_pairs.regressions(BOUNDED, summaries, RUNS, same)


@pytest.mark.parametrize(
    "parent, change, found",
    [
        # parent quartiles 90 and 110, an IQR of 20% of the median 100
        ([80.0, 90.0, 100.0, 110.0, 120.0], [100.0] * 5, []),  # within the 25% bound
        ([60.0, 70.0, 100.0, 130.0, 140.0], [100.0] * 5, ["keys_per_s"]),  # IQR 60%
        # every change run better than every parent run: resolved however wide
        ([60.0, 70.0, 100.0, 130.0, 140.0], [150.0] * 5, []),
        ([60.0, 70.0, 100.0, 130.0, 140.0], [150.0] * 4 + [140.0], ["keys_per_s"]),  # a tie
    ],
)
def test_unresolved_applies_the_spread_rule(parent, change, found):
    summaries = {"keys_per_s": bench_pairs.summarize(BOUNDED["keys_per_s"], parent, change)}
    metrics = {"keys_per_s": BOUNDED["keys_per_s"]}
    assert bench_pairs.unresolved(metrics, summaries) == found
    # lower is better: the same runs, negated, read the same way
    lower = dict(BOUNDED["keys_per_s"], better="lower")
    flipped = {"keys_per_s": bench_pairs.summarize(lower, [-v for v in parent], [-v for v in change])}
    assert bench_pairs.unresolved({"keys_per_s": lower}, flipped) == found


def test_per_size_reads_raw_walls_from_the_result_file(tmp_path):
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    # (round, n, builder, wall s, cpu s, probe passes before it), two parts
    parts = [
        {"records": [[0, 9, "binary", 0.001, 0.001, 0], [0, 12, "prime", 0.004, 0.004, 0]]},
        {"records": [[0, 9, "binary", 0.003, 0.002, 1], [1, 9, "binary", 0.002, 0.002, 1]]},
    ]
    (out / "result-sort_cold-seed5-trace0.json").write_text(json.dumps({"parts": parts}))
    walls = bench_pairs.walls(str(tmp_path), "sort_cold", 5)
    assert walls == {9: pytest.approx([1.0, 3.0, 2.0]), 12: pytest.approx([4.0])}
    sides = {"parent": walls, "change": {9: [1.0, 0.5], 30: [7.0]}}
    assert bench_pairs.per_size(sides) == {
        "9": {"parent": 2.0, "change": 0.75},
        "12": {"parent": 4.0, "change": None},
        "30": {"parent": None, "change": 7.0},
    }


def test_raw_reads_unscaled_metrics_from_the_result_file(tmp_path):
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    # two parts, with probe passes that the run's own, scaled, metrics read
    # and the raw ones do not
    parts = [
        {"passes": {"py": [[0.5, 0.5]]},
         "records": [[0, 10, "binary", 0.001, 0.002, 0], [0, 30, "prime", 0.004, 0.003, 0]]},
        {"passes": {"py": [[2.0, 2.0]]},
         "records": [[0, 20, "divisor", 0.002, 0.001, 1], [1, 40, "binary", 0.003, 0.002, 1]]},
    ]
    (out / "result-audit-seed7-trace0.json").write_text(json.dumps({"parts": parts}))
    raw = bench_pairs.raw(str(tmp_path), "audit", 7)
    # walls 1, 4, 2 and 3 ms; 100 keys in 10 ms; 8 ms of CPU over 4 operations
    assert raw == pytest.approx(
        {"latency_p50_ms": 2.5, "latency_p90_ms": 3.7, "keys_per_s": 10000.0, "cpu_ms_per_op": 2.0}
    )
    runs = {"parent": [raw, dict(raw, keys_per_s=8000.0), dict(raw, keys_per_s=9000.0)],
            "change": [dict(raw, latency_p50_ms=2.0), dict(raw, latency_p50_ms=1.0)]}
    medians = bench_pairs.raw_medians(runs)
    assert medians["keys_per_s"] == {"parent": 9000.0, "change": 10000.0}
    assert medians["latency_p50_ms"] == {"parent": 2.5, "change": 1.5}
    assert medians["cpu_ms_per_op"] == {"parent": 2.0, "change": 2.0}


def test_peak_rss_by_part_reads_each_part_from_the_result_file(tmp_path):
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    parts = [{"peak_rss_mb": 60.5, "records": []}, {"peak_rss_mb": 64.0, "records": []},
             {"peak_rss_mb": 69.25, "records": []}]
    (out / "result-execute_warm-seed3-trace0.json").write_text(json.dumps({"parts": parts}))
    rss = bench_pairs.peak_rss(str(tmp_path), "execute_warm", 3)
    assert rss == [60.5, 64.0, 69.25]
    # the median of each part over the runs, not over the parts of one run
    runs = {"parent": [rss, [62.5, 66.0, 71.25], [61.0, 63.0, 70.0]],
            "change": [[50.0, 52.0, 54.0], [52.0, 50.0, 58.0]]}
    assert bench_pairs.rss_by_part(runs) == {
        "parent": [61.0, 64.0, 70.0],
        "change": [51.0, 51.0, 56.0],
    }
