"""The summary arithmetic of ``tools/ab_pairs.py``, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_medians_inclusive_quartiles_and_the_pairs_the_change_won():
    base = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.0, 10.0, 12.5, 11.0]
    s = ab_pairs.summarize(base, change)
    assert s["base_median"] == 12.0 and s["change_median"] == 11.0
    # Inclusive quartiles of 10..14 are 11 and 13; of 9, 10, 11, 12, 12.5 they are 10 and 12.
    assert s["base_quartiles"] == [11.0, 12.0, 13.0]
    assert s["change_quartiles"] == [10.0, 11.0, 12.0]
    assert s["base_iqr"] == 2.0
    assert s["change_rel"] == pytest.approx(-1.0 / 12.0)
    assert (s["pairs"], s["pairs_change_won"], s["pairs_tied"]) == (5, 4, 1)
    assert s["gap_exceeds_base_iqr"] is False  # 1.0 against an IQR of 2.0


def test_a_higher_is_better_metric_counts_the_other_way():
    base, change = [0.90, 0.91, 0.92, 0.93], [0.95, 0.96, 0.97, 0.92]
    s = ab_pairs.summarize(base, change, higher_is_better=True)
    assert s["pairs_change_won"] == 3 and s["pairs_tied"] == 0
    assert s["base_iqr"] == pytest.approx(0.015)  # 0.9225 - 0.9075
    assert s["gap_exceeds_base_iqr"] is True  # medians 0.915 and 0.955
    assert ab_pairs.summarize(base, change)["pairs_change_won"] == 1


def test_fewer_than_two_pairs_or_unequal_lengths_are_errors():
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0], [1.0])
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0, 2.0], [1.0])
