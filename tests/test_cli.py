"""The CLI's report writer against json, and the `python -m superell.cli`
entry point in fresh processes."""

import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superell.census import run_census
from superell.cli import _dump_json, main

ROOT = Path(__file__).resolve().parents[1]


def _dumped(payload) -> str:
    buf = io.StringIO()
    _dump_json(payload, buf)
    return buf.getvalue()


_AWKWARD = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "ζ", " ", "\ud800", "😀", "a"]
_TEXT = st.text(alphabet=st.sampled_from(_AWKWARD), max_size=6) | st.text(max_size=6)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
    | _TEXT
)
_NUMBER_KEYS = st.integers() | st.booleans() | st.floats()


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(st.integers(), max_size=4)
        | st.dictionaries(_TEXT, children, max_size=4)
        | st.dictionaries(_NUMBER_KEYS, children, max_size=4)
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(payload=st.recursive(_LEAVES, _containers, max_leaves=30))
def test_dump_json_writes_the_bytes_of_json_dump(payload):
    assert _dumped(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        {None: 1},
        {True: [], False: {}, 2: ()},
        {10: 0, 9: 1, -1.5: 2},
        [{}, [], (), "", 0, -0.0],
    ],
)
def test_dump_json_converts_keys_after_sorting(payload):
    assert _dumped(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [{1: 0, "a": 1}, [{"b": {(1, 2): 0}}], {"x": {1, 2}}])
def test_dump_json_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _dumped(payload)


def _module_cli(*argv, timeout: float = 120) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUPERELL_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, "-m", "superell.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_module_entry_point_exit_codes():
    census = _module_cli("census", "--p", "7", "--ell", "3", "--max-degree", "2")
    assert census.returncode == 0, census.stderr
    report = json.loads(census.stdout)
    expected = json.loads(json.dumps(run_census(7, 1, 3, 2).to_json()))
    del report["runtime_stats"], expected["runtime_stats"]
    assert report == expected
    bad = _module_cli("census", "--p", "7", "--ell", "3", "--max-degree", "0")
    assert bad.returncode == 2 and "max_degree" in bad.stderr
    guard = _module_cli("census", "--p", "7", "--ell", "3", "--max-degree", "12")
    assert guard.returncode == 3 and "SUPERELL_LIMIT_CENSUS" in guard.stderr
    for run in (census, bad, guard):
        assert "Traceback" not in run.stderr


@pytest.mark.parametrize("p", [2, 3, 7])
def test_family_thm41_names_its_requirement_on_p(p, capsys):
    # p = 2 once failed on the components, p = 3 on ell against the
    # characteristic and p = 7 on the central eigenvalue, none naming the seed
    assert main(["family", "--seed-kind", "thm41", "--p", str(p), "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert f"thm41 seed needs an odd prime p = 2 mod 3, got p = {p}" in err
    assert "Traceback" not in err


_DENSITY = ["density", "--p", "7", "--ell", "3", "--components", "[[0,6,0,1],[1]]"]
_HUGE = "2305843009213693951"  # 2^61 - 1: a prime whose trial division would take hours


@pytest.mark.parametrize("argv,named", [
    (["census", "--p", _HUGE, "--ell", "3", "--max-degree", "2"], "FIELD_SIZE_LIMIT"),
    (["census", "--p", "7", "--ell", _HUGE, "--max-degree", "2"], "FIELD_SIZE_LIMIT"),
    (["lpoly", "--p", "7", "--ell", _HUGE, "--conductor-factors", "[[[0, 1], 1]]"], "FIELD_SIZE_LIMIT"),
    (["seed-check", "--kind", "thm42", "--p", "5", "--ell", _HUGE], "FIELD_SIZE_LIMIT"),
    (["census", "--p", "3", "--e", "100000000", "--ell", "3", "--max-degree", "2"], "3^100000000"),
    (["census", "--p", "7", "--ell", "3", "--max-degree", "100000000"],
     "SUPERELL_LIMIT_CENSUS >= 7^100000000"),
    (["family", "--seed-kind", "f25twist", "--p", "5", "--n", "100000000"],
     "SUPERELL_LIMIT_CENSUS"),
    (_DENSITY + ["--deg-max", "100000000"], "SUPERELL_LIMIT_CENSUS >= 7^100000000"),
    (_DENSITY + ["--deg-max", "2", "--h-deg", "100000000", "--samples", "1"],
     "SUPERELL_LIMIT_CENSUS"),
])
def test_huge_inputs_are_refused_before_any_work(argv, named, capsys):
    # a huge prime meets the primality test's range and a huge exponent its
    # limit's bit length, before trial division or the power is computed; a
    # family's pairs, a truncated product's factor-table level and a
    # sampler's draws are bounded before any of them is built
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_census_cache_through_a_symlink_stays_a_link(tmp_path):
    # a cold, a warm and a rebuilding run write through the link to its
    # target, which holds the header and the blocks, and leave the link a link
    real, link, out = tmp_path / "real.lcache", tmp_path / "link.lcache", tmp_path / "r.json"
    real.touch()
    link.symlink_to(real)
    argv = ["census", "--p", "7", "--ell", "3", "--max-degree", "2", "--cache", str(link),
            "--out", str(out)]
    assert main(argv) == 0
    cold = json.loads(out.read_text())
    assert link.is_symlink() and os.readlink(link) == str(real)
    lines = real.read_bytes().splitlines()
    # the header, and one block for each of the 1 + 2 affine classes
    assert b'"format":"superell-lcache"' in lines[0] and len(lines) == 1 + 3
    assert cold["cache"]["misses"] > 0
    assert not (tmp_path / "link.lcache.tmp").exists()
    assert main(argv) == 0
    warm = json.loads(out.read_text())
    assert warm["cache"]["misses"] == 0 and warm["cache"]["blocks"] == 3
    assert warm["per_degree"] == cold["per_degree"]
    with open(real, "ab") as fh:
        fh.write(b"garbled block\n")
    assert main(argv) == 0
    assert json.loads(out.read_text())["cache"]["rebuilt"]
    assert link.is_symlink() and real.read_bytes().splitlines() == lines


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_census_cache_that_is_a_fifo_is_refused(tmp_path):
    # opening a FIFO to append would block until a reader came
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    start = time.perf_counter()
    run = _module_cli("census", "--p", "7", "--ell", "3", "--max-degree", "2",
                      "--cache", str(fifo), timeout=10)
    assert time.perf_counter() - start < 2
    assert run.returncode == 2
    assert "--cache" in run.stderr and "not a regular file" in run.stderr
    assert "Traceback" not in run.stderr
