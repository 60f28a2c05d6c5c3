"""The perfbench workloads: the superell CLI arguments of each, the work it
counts, and the pinned answers its output is checked against.

An answer is checked by normalising the CLI's JSON report (dropping only the
fields that hold run times or cache statistics), hashing it, and comparing the
hash with a pin recorded from a verified run.  The summaries next to each pin
say what the pinned answer contains.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

# Report fields that vary from run to run and are not part of the answer.
RUNTIME_FIELDS = {
    "census": ("runtime_stats", "cache"),
    "family": ("seconds",),
    "density": (),
}


def normalise(report: dict) -> dict:
    """The report without its runtime fields."""
    drop = RUNTIME_FIELDS[report["kind"]]
    return {k: v for k, v in report.items() if k not in drop}


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# count_A {14, 126, 1092, 9240}, count_B {0, 0, 28, 224}; 25 decompositions
# sampled, all matching; duality closed.
CENSUS_Q7_PIN = "43e85ec4a6ac76cb97d3a246825a33ba7893042c47e3a4e47b1b63c5df7e2d11"

# 12 distinct genus-1 models; 117 of 120 raw pairs squarefree; all verified.
FAMILY_F25_G1_PIN = "a60b51f32b7856486764f184cd626c2cce66edaac7d4e195e7452ed7f1ac67a3"

# density-q7 at the default sample seed: 5852 hits out of 10000.
DENSITY_Q7_PIN = "b7bdf259857ff695f6237f1c21c84f5393939480df3fec462c8aa123c597127d"
# density-q7 without its "empirical" block, which is the same for every seed.
DENSITY_Q7_FORM_PIN = "bac6bc8c33a47e10b15f166ad25988abe691aa85a9958a7c2c86a84b77b0cd02"
DENSITY_DEFAULT_SEED = 20260808
DENSITY_SAMPLES = 10000


def _census_args(cache_path: str) -> list[str]:
    return ["census", "--p", "7", "--ell", "3", "--max-degree", "4",
            "--sample-decomp", "25", "--cache", cache_path]


def _census_check(report: dict, seed: int) -> list[str]:
    got = digest(normalise(report))
    if got == CENSUS_Q7_PIN:
        return []
    rows = [(r["count_A"], r["count_B"]) for r in report["per_degree"]]
    return [f"census answer {got} != pin {CENSUS_Q7_PIN}: (count_A, count_B) {rows}, "
            f"decomposition {report['decomposition']}"]


def _family_check(report: dict, seed: int) -> list[str]:
    got = digest(normalise(report))
    if got == FAMILY_F25_G1_PIN:
        return []
    genera = [v["genus"] for v in report["verification"]]
    return [f"family answer {got} != pin {FAMILY_F25_G1_PIN}: genera {genera}, "
            f"all_verified {report['all_verified']}"]


def density_sample_seed(seed: int) -> int:
    return DENSITY_DEFAULT_SEED + seed


def _density_check(report: dict, seed: int) -> list[str]:
    problems = []
    emp = report["empirical"]
    form = {k: v for k, v in report.items() if k != "empirical"}
    if digest(form) != DENSITY_Q7_FORM_PIN:
        problems.append(f"density local factors {digest(form)} != pin {DENSITY_Q7_FORM_PIN}")
    if (emp["samples"] != DENSITY_SAMPLES or emp["seed"] != density_sample_seed(seed)
            or not 0 <= emp["hits"] <= emp["samples"]
            or emp["frequency"] != emp["hits"] / emp["samples"]):
        problems.append(f"density empirical block inconsistent: {emp}")
    if emp["seed"] == DENSITY_DEFAULT_SEED and digest(report) != DENSITY_Q7_PIN:
        problems.append(f"density answer {digest(report)} != pin {DENSITY_Q7_PIN}: "
                        f"{emp['hits']} hits")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    # "none", "empty" (a fresh empty L-cache per run) or "warm" (a private
    # copy of the L-cache that set-up filled)
    cache: str
    args: Callable[[int], list]  # seed -> CLI arguments, run in the run's directory
    items: Callable[[dict], int]  # units of work in one run's report
    check: Callable[[dict, int], list]  # (report, seed) -> problems


CACHE_FILE = "lcache.jsonl"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-q7-cold", "empty",
            lambda seed: _census_args(CACHE_FILE),
            lambda rep: sum(r["count_A"] for r in rep["per_degree"]),
            _census_check,
        ),
        Workload(
            "census-q7-warm", "warm",
            lambda seed: _census_args(CACHE_FILE),
            lambda rep: sum(r["count_A"] for r in rep["per_degree"]),
            _census_check,
        ),
        Workload(
            "family-f25-g1", "none",
            lambda seed: ["family", "--seed-kind", "f25twist", "--p", "5", "--n", "6",
                          "--verify-vanishing",
                          "--max-pairs-per-degree", '{"1": 60, "2": 60}',
                          "--max-members-per-degree", '{"1": 12, "2": 0}'],
            lambda rep: len(rep["verification"]),
            _family_check,
        ),
        Workload(
            "density-q7", "none",
            lambda seed: ["density", "--p", "7", "--ell", "3",
                          "--components", "[[0,6,0,1],[1]]", "--deg-max", "2",
                          "--samples", str(DENSITY_SAMPLES),
                          "--seed", str(density_sample_seed(seed))],
            lambda rep: rep["empirical"]["samples"],
            _density_check,
        ),
    )
}
