"""The pair runner's statistics: numpy's linear percentiles and win counts."""

import importlib.util
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
