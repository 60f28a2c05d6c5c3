"""Self-tests of the benchmark: answer normalisation, the pin check, and the
tracer's self-time arithmetic.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from array import array

import pytest

import tracer
from run import hermetic_env
from workloads import WORKLOADS, normalise


def _cli_report(workload: str, seed: int = 0) -> dict:
    args = WORKLOADS[workload].args(seed)
    out = subprocess.run([sys.executable, "-m", "superell.cli", *args], env=hermetic_env(),
                         capture_output=True, check=True).stdout
    return json.loads(out)


@pytest.mark.parametrize("kind, runtime", [
    ("census", {"runtime_stats", "cache"}),
    ("family", {"seconds"}),
    ("density", set()),
])
def test_normalise_drops_exactly_the_runtime_fields(kind, runtime):
    answer = {"kind": kind, "schema_version": 1, "per_degree": [{"count_A": 14}],
              "all_verified": True, "empirical": {"hits": 5852}}
    report = dict(answer, **{name: {"total_seconds": 1.5} for name in runtime})
    assert normalise(report) == answer


@pytest.fixture(scope="module")
def family_report():
    return _cli_report("family-f25-g1")


def test_family_answer_matches_pin(family_report):
    assert WORKLOADS["family-f25-g1"].check(family_report, 0) == []


def test_runtime_field_change_keeps_the_answer(family_report):
    report = dict(family_report, seconds=family_report["seconds"] + 100.0)
    assert WORKLOADS["family-f25-g1"].check(report, 0) == []


@pytest.mark.parametrize("tamper", [
    lambda r: r["verification"][0].update(genus=2),
    lambda r: r.update(raw_pairs=r["raw_pairs"] + 1),
    lambda r: r.update(all_verified=False),
])
def test_tampered_family_answer_fails(family_report, tamper):
    report = copy.deepcopy(family_report)
    tamper(report)
    assert WORKLOADS["family-f25-g1"].check(report, 0)


def test_density_pins_and_tampering():
    check = WORKLOADS["density-q7"].check
    report = _cli_report("density-q7", seed=0)
    assert report["empirical"]["hits"] == 5852
    assert check(report, 0) == []
    # the sample seed comes from the benchmark seed
    assert check(report, 1)
    tampered = copy.deepcopy(report)
    tampered["empirical"]["hits"] += 1
    assert check(tampered, 0)
    tampered = copy.deepcopy(report)
    tampered["factors"][0]["num"] = "317"
    assert check(tampered, 0)


def _spans(rows):
    """rows of (name, parent index, start, end) -> aggregate's arguments."""
    span_names = sorted({r[0] for r in rows})
    cols = [array("q", col) for col in zip(*[(span_names.index(n), p, s, e)
                                             for n, p, s, e in rows])]
    return span_names, *cols


def test_self_time_of_a_synthetic_nested_trace():
    # a [0, 100] holds b [10, 40] (which holds c [15, 25]) and d [50, 90];
    # a second root e [200, 210] calls b again [202, 204]
    rows = [
        ("a", -1, 0, 100),
        ("b", 0, 10, 40),
        ("c", 1, 15, 25),
        ("d", 0, 50, 90),
        ("e", -1, 200, 210),
        ("b", 4, 202, 204),
    ]
    agg, root_s = tracer.aggregate(*_spans(rows))
    self_ns = {name: round(row["self_s"] * 1e9) for name, row in agg.items()}
    assert self_ns == {"a": 30, "b": 22, "c": 10, "d": 40, "e": 8}
    assert agg["b"]["calls"] == 2
    assert round(agg["b"]["incl_s"] * 1e9) == 32
    # the roots' durations and the summed self times cover the same time
    assert round(root_s * 1e9) == 110 == sum(self_ns.values())


def test_wrapped_calls_record_their_parent():
    t = tracer.Tracer()

    def inner(x):
        return x + 1

    inner_w = t.wrap("m.inner", inner)
    outer_w = t.wrap("m.outer", lambda x: inner_w(x) * inner_w(x))
    assert outer_w(1) == 4
    assert [t.span_names[i] for i in t.names] == ["m.outer", "m.inner", "m.inner"]
    assert list(t.parents) == [-1, 0, 0]
    agg, root_s = tracer.aggregate(t.span_names, t.names, t.parents, t.starts, t.ends)
    assert agg["m.inner"]["calls"] == 2
    assert root_s == pytest.approx(agg["m.outer"]["incl_s"])
