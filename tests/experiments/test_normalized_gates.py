"""The anchor-normalized regression gates against their committed baselines.

Every normalized suite divides each record by one anchor record of the
same run (:data:`NORMALIZE_ANCHORS`).  These tests pin that each gate
can fail — a 31% drop of any gated record trips it, a 29% drop does
not — and that the batching anchor sits off the unbatched
``invoke_async`` path, so making that path faster never reads as a
regression of the other records.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.benchreport import (
    NORMALIZE_ANCHORS,
    compare_reports,
    load_report,
)

ROOT = Path(__file__).resolve().parents[2]


def _baseline(suite: str) -> dict:
    return load_report(str(ROOT / f"BENCH_{suite}.json"))


def _scaled(report: dict, factors: dict[str, float]) -> dict:
    return {
        "records": [
            {
                "name": r["name"],
                "calls_per_sec": r["calls_per_sec"] * factors.get(r["name"], 1.0),
            }
            for r in report["records"]
        ]
    }


def _gate(suite: str, baseline: dict, current: dict):
    return compare_reports(
        baseline, current, tolerance=0.30, normalize=True,
        anchor=NORMALIZE_ANCHORS[suite],
    )


def _gated(suite: str) -> list[str]:
    anchor = NORMALIZE_ANCHORS[suite]
    return [
        r["name"] for r in _baseline(suite)["records"] if r["name"] != anchor
    ]


@pytest.mark.parametrize("suite", sorted(NORMALIZE_ANCHORS))
class TestEveryNormalizedGate:
    def test_the_baseline_passes_against_itself(self, suite):
        baseline = _baseline(suite)
        names = {r["name"] for r in baseline["records"]}
        assert NORMALIZE_ANCHORS[suite] in names
        assert _gate(suite, baseline, baseline).ok

    def test_a_31_percent_drop_of_any_gated_record_trips(self, suite):
        baseline = _baseline(suite)
        for name in _gated(suite):
            result = _gate(suite, baseline, _scaled(baseline, {name: 0.69}))
            assert result.regressions == [name]

    def test_a_29_percent_drop_passes(self, suite):
        baseline = _baseline(suite)
        for name in _gated(suite):
            assert _gate(suite, baseline, _scaled(baseline, {name: 0.71})).ok

    def test_machine_speed_cancels_out(self, suite):
        baseline = _baseline(suite)
        slower = _scaled(
            baseline, {r["name"]: 0.4 for r in baseline["records"]}
        )
        assert _gate(suite, baseline, slower).ok


def test_faster_unbatched_async_calls_do_not_flag_batching():
    """The batching anchor is a batched leg: a 2.6x faster unbatched
    ``invoke_async`` window leaves every other record's verdict alone,
    while a batched record dropping 31% still trips."""
    baseline = _baseline("rmi_batching")
    faster = {"batch-off-c1": 2.6, "batch-off-c8": 2.6, "batch-off-c64": 2.6}
    assert _gate("rmi_batching", baseline, _scaled(baseline, faster)).ok
    worse = dict(faster, **{"batch-on-c64": 0.69})
    result = _gate("rmi_batching", baseline, _scaled(baseline, worse))
    assert result.regressions == ["batch-on-c64"]

