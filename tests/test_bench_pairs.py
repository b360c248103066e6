"""The pair runner's summary (tools/bench_pairs.py) on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

PAIRS_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

METRICS = [
    {"name": "wall_ref", "better": "lower", "bound": 0.25},
    {"name": "pass_frac", "better": "higher", "bound": 0.01},
]


def _load_pairs():
    spec = importlib.util.spec_from_file_location("nlslab_bench_pairs", PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(wall, passed, digests=None):
    digests = digests or ["d"] * len(wall)
    return [
        {
            "result": {
                "metrics": {"wall_ref": {"value": w}, "pass_frac": {"value": p}},
                "correct": True,
                "failed": 0,
            },
            "info": {"digest": digest, "seed": k},
        }
        for k, (w, p, digest) in enumerate(zip(wall, passed, digests))
    ]


def _compare(parent_wall, change_wall, parent_pass=None, change_pass=None):
    parent_pass = parent_pass or [1.0] * len(parent_wall)
    change_pass = change_pass or [1.0] * len(change_wall)
    runs = {"parent": _runs(parent_wall, parent_pass), "change": _runs(change_wall, change_pass)}
    return _load_pairs().summarize(runs, METRICS)["comparisons"]


def test_a_clear_gain_is_claimed_and_within_bound():
    out = _compare([80, 81, 79, 80, 82], [72, 73, 71, 72, 74])
    wall = out["wall_ref"]
    assert wall["change_wins"] == 5 and wall["claim_holds"]
    assert wall["within_bound"] and not wall["unresolved"]
    assert out["pass_frac"]["within_bound"] and not out["pass_frac"]["claim_holds"]


@pytest.mark.parametrize(
    "change_wall,within",
    [([99, 100, 101, 100, 99], True), ([101, 102, 101, 102, 101], False)],
)
def test_within_bound_allows_the_metric_bound(change_wall, within):
    # 25% worse than a median of 80 is 100.
    wall = _compare([80, 80, 79, 81, 80], change_wall)["wall_ref"]
    assert wall["within_bound"] is within
    assert not wall["unresolved"] and not wall["claim_holds"]


def test_a_lost_pass_is_out_of_bound_in_the_higher_direction():
    passes = _compare([80] * 4, [80] * 4, change_pass=[1.0, 0.9, 0.9, 1.0])["pass_frac"]
    assert not passes["within_bound"]


def test_a_wide_parent_spread_is_unresolved_unless_every_run_wins():
    wide = [40, 60, 100, 120, 80]  # quartiles 60 and 100: 50% of the median
    assert _compare(wide, [75, 85, 80, 90, 70])["wall_ref"]["unresolved"]
    assert not _compare(wide, [30, 35, 31, 36, 33])["wall_ref"]["unresolved"]


@pytest.mark.parametrize(
    "parent_digests, change_digests, match",
    [
        (["a"] * 3, ["a"] * 3, True),
        (["a"] * 3, ["a", "b", "a"], False),
        (["a"] * 3, ["b"] * 3, False),
        (["a", "b", "a"], ["a", "b", "a"], False),  # the parent disagrees with itself
    ],
)
def test_digests_match_when_every_change_run_has_the_parent_digest(
    parent_digests, change_digests, match
):
    runs = {
        "parent": _runs([80] * 3, [1.0] * 3, parent_digests),
        "change": _runs([80] * 3, [1.0] * 3, change_digests),
    }
    assert _load_pairs().summarize(runs, METRICS)["digests_match"] is match
