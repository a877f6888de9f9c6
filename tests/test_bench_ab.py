"""The pair statistics of bench/ab.py: pairs won by direction, ties counted
for neither side, and quartiles taken inclusively."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import ab  # noqa: E402


def test_pairs_won_follow_the_direction_and_ties_count_for_neither():
    pairs = [{"base": 10.0 + i, "head": 8.0 + i} for i in range(8)]
    pairs += [{"base": 5.0, "head": 5.0}, {"base": 4.0, "head": 6.0}]
    lower = ab.summarize(pairs, "lower")
    assert (lower["head_won"], lower["ties"], lower["pairs"]) == (8, 1, 10)
    higher = ab.summarize(pairs, "higher")
    assert (higher["head_won"], higher["ties"]) == (1, 1)
    assert lower["base"]["median"] == 12.5 and lower["head"]["median"] == 10.5


def test_quartiles_are_inclusive():
    assert ab.quartiles([1, 2, 3, 4, 5]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
