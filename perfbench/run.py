"""perfbench: end-to-end and per-layer benchmark of the superell CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up compiles the package's
bytecode and times fresh interpreters that import superell (census-q7-warm
also fills its L-cache with one cold census).  Then the workload's CLI command
runs again and again, one fresh process at a time in its own directory, until
S seconds have been measured; every run's answer is checked against a pin.
Timings are reported in units of a reference loop timed around each run (see
reference_loop); the raw seconds are in the run record.  With --trace 1 a second series of runs goes through tracer.py, which splits
the time by module.  The last line of stdout is the result as JSON; the line
before it is the run record (interpreter, machine, revision, load).

Metric names, units and the workloads are defined in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import CACHE_FILE, WORKLOADS, digest, normalise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 11
REFERENCE_ITERATIONS = 3_000_000  # 0.2-0.5 s on one core of a shared 2.1 GHz Xeon
# setup_s is given in seconds at the speed where the reference loop takes this long
REFERENCE_S = 0.25
CHILD_TIMEOUT_S = 170
# counts that depend only on the inputs, so two traced runs must agree on them
EXACT_COUNTS = (
    "characters.char_value_counts.calls",
    "polyring.factor.calls",
    "lfunction.lcache.hits",
    "lfunction.lcache.misses",
    "curves.points_scanned",
    "families.raw_pairs",
)


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ref_s: float = 0.0  # the reference loop's time around this run
    items: int = 0
    answer: "str | None" = None
    problems: list = field(default_factory=list)
    layers: "dict | None" = None  # per-layer metrics of a traced run
    traced_wall_s: float = 0.0  # a traced run's wall time without writing spans


def hermetic_env() -> dict:
    """The caller's environment without SUPERELL_* (they reroute code paths)
    or PYTHON* settings, with only the checkout's src on the import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SUPERELL_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list, cwd: Path, env: dict) -> tuple:
    """Run argv to completion; (exit code, wall s, cpu s, peak RSS MB, stdout,
    stderr).  The child's own rusage comes from wait4, and nothing else runs
    in this process while it is timed."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: stop the child and reap it, then re-raise
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            out_path.read_bytes(), err_path.read_bytes())


class Bench:
    def __init__(self, workload, seed: int, work: Path, per_layer: list):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.per_layer = per_layer
        self.env = hermetic_env()
        self.filled_cache: "Path | None" = None
        self.runs = 0

    def setup(self) -> tuple:
        """Compile bytecode, then time the set-up: the median of fresh
        interpreters importing superell, plus the cold census that fills the
        L-cache for the warm workload.  Returns (seconds, reference loops,
        runs made)."""
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "superell")],
                       env=self.env, check=True, stdout=subprocess.DEVNULL)
        ref_before = reference_loop()
        imports = []
        for _ in range(IMPORT_SAMPLES):
            rc, wall, *_, err = spawn([sys.executable, "-c", "import superell.cli"],
                                      self.work, self.env)
            if rc != 0:
                raise SystemExit(f"importing superell failed: {err.decode(errors='replace')}")
            imports.append(wall)
        ref_after = reference_loop()
        seconds = statistics.median(imports)
        refs = seconds / ((ref_before + ref_after) / 2)
        if self.wl.cache != "warm":
            return seconds, refs, []
        self.filled_cache = self.work / "filled.jsonl"
        fill = self.run_once(fill_to=self.filled_cache)
        fill.ref_s = (ref_after + reference_loop()) / 2
        return seconds + fill.wall_s, refs + fill.wall_s / fill.ref_s, [fill]

    def run_once(self, *, traced: bool = False, fill_to: "Path | None" = None) -> Run:
        """One fresh CLI process in its own directory, its answer checked.
        With `fill_to`, the run starts from an empty L-cache and leaves it
        there."""
        cache = "empty" if fill_to else self.wl.cache
        rdir = self.work / f"run-{self.runs}"
        self.runs += 1
        rdir.mkdir()
        if cache == "empty":
            (rdir / CACHE_FILE).touch()
        elif cache == "warm":
            shutil.copyfile(self.filled_cache, rdir / CACHE_FILE)
        args = self.wl.args(self.seed)
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(rdir / "spans.json"), *args]
        else:
            argv = [sys.executable, "-m", "superell.cli", *args]
        rc, wall, cpu, rss, out, err = spawn(argv, rdir, self.env)
        run = Run(wall, cpu, rss)
        if rc != 0:
            run.problems.append(f"exit code {rc}")
        if b"Traceback (most recent call last)" in err:
            run.problems.append("traceback on stderr")
        try:
            report = json.loads(out)
        except ValueError:
            run.problems.append(f"no JSON report; stderr: {err[-2000:].decode(errors='replace')}")
            report = None
        if report is not None:
            try:
                run.answer = digest(normalise(report))
                run.items = self.wl.items(report)
                run.problems += self.wl.check(report, self.seed)
                if cache == "warm" and report["cache"]["misses"] != 0:
                    run.problems.append(f"warm run missed the L-cache: {report['cache']}")
            except (KeyError, TypeError, IndexError) as exc:
                run.problems.append(f"report lacks an expected field: {exc!r}")
        if cache == "warm" and not filecmp.cmp(self.filled_cache, rdir / CACHE_FILE,
                                               shallow=False):
            run.problems.append("warm run changed its L-cache copy")
        if traced and rc == 0:
            self.read_trace(run, rdir / "spans.json")
        if fill_to:
            shutil.move(rdir / CACHE_FILE, fill_to)
        shutil.rmtree(rdir)
        return run

    def read_trace(self, run: Run, spans_path: Path) -> None:
        """Per-layer metrics of a traced run, except trace_overhead_s, which
        needs the untraced runs."""
        header, *spans = tracer.load_spans(str(spans_path))
        agg, root_s = tracer.aggregate(header["span_names"], *spans)
        c = header["counters"]
        run.traced_wall_s = run.wall_s - header["dump_s"]
        raw = c["families.raw_pairs"]
        looked_up = c["lfunction.lcache.hits"] + c["lfunction.lcache.misses"]
        derived = {
            **c,
            "families.valid_ratio": c["families.squarefree_pairs"] / raw if raw else 0.0,
            "lfunction.lcache.hit_ratio":
                c["lfunction.lcache.hits"] / looked_up if looked_up else 0.0,
            "lfunction.lcache.load_s": agg["lfunction.lcache.load"]["incl_s"],
            "lfunction.lcache.get_s": agg["lfunction.lcache.get"]["incl_s"],
            "lfunction.lcache.put_s": agg["lfunction.lcache.put"]["incl_s"],
            "process.import_s": header["import_s"],
            "unattributed_s": run.traced_wall_s - root_s,
        }
        run.layers = {}
        for name in self.per_layer:
            if name in derived:
                run.layers[name] = derived[name]
            elif name.endswith(".calls"):
                run.layers[name] = agg[name[: -len(".calls")]]["calls"]
            elif name.endswith(".s"):
                run.layers[name] = agg[name[: -len(".s")]]["self_s"]
            elif name != "trace_overhead_s":
                raise KeyError(f"no rule for per-layer metric {name}")


def reference_loop() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    The machine's speed drifts by up to half for tens of seconds at a time
    (other tenants share its cores), which no number of runs averages away.
    Each timed run is therefore also expressed in units of this loop, timed
    right before and right after it on the same core."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def measure(bench: Bench, seconds: float, *, traced: bool) -> list:
    """Fresh runs, one at a time, for about `seconds` in all: another run
    starts only while half of it (judged by the last one) still fits.
    Untraced runs are bracketed by the reference loop."""
    runs, measured = [], 0.0
    ref_before = 0.0 if traced else reference_loop()
    while not runs or measured + runs[-1].wall_s / 2 < seconds:
        run = bench.run_once(traced=traced)
        if not traced:
            ref_after = reference_loop()
            run.ref_s = (ref_before + ref_after) / 2
            ref_before = ref_after
        runs.append(run)
        measured += run.wall_s
    return runs


def run_record() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "superell").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "loadavg_start": _loadavg(),
    }


def _loadavg() -> "str | None":
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one core for this process and its children, so that the reference loop
    # runs where the timed runs do
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "superell" / "cli.py").is_file():
        print(f"perfbench: no superell sources under {SRC}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    per_layer = [m["name"] for m in config["per_layer"]]

    record = run_record()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work, per_layer)
        setup_raw_s, setup_refs, setup_runs = bench.setup()
        timed = measure(bench, args.seconds, traced=False)
        traced = measure(bench, args.seconds, traced=True) if args.trace else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = setup_runs + timed + traced
    for r in every:
        if r.answer != every[0].answer:
            r.problems.append(f"answer {r.answer} differs from the first run's {every[0].answer}")
    problems = [p for r in every for p in r.problems]
    wall_s = statistics.median(r.wall_s for r in timed)
    if args.trace:
        layer_runs = [r for r in traced if r.layers is not None]
        for name in EXACT_COUNTS:
            if len({r.layers[name] for r in layer_runs}) > 1:
                problems.append(f"{name} differs between traced runs")
        if not layer_runs:
            problems.append("no traced run completed")
            layer_runs = traced  # report zeros rather than no metrics
            for r in layer_runs:
                r.layers = dict.fromkeys(per_layer, 0.0)
        # median_low keeps counts whole: it returns one of the runs' values
        values = {name: statistics.median_low(r.layers[name] for r in layer_runs)
                  for name in per_layer if name != "trace_overhead_s"}
        values["trace_overhead_s"] = statistics.median(
            r.traced_wall_s for r in layer_runs) - wall_s
    else:
        values = {
            "wall_ref": statistics.median(r.wall_s / r.ref_s for r in timed),
            "cpu_ref": statistics.median(r.cpu_s / r.ref_s for r in timed),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
            "items_per_ref": statistics.median(r.items * r.ref_s / r.wall_s for r in timed),
            "setup_s": setup_refs * REFERENCE_S,
        }
    failed = sum(1 for r in every if r.problems)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        samples=len(timed), traced_samples=len(traced), loadavg_end=_loadavg(),
        wall_s=wall_s, cpu_s=statistics.median(r.cpu_s for r in timed),
        reference_s=statistics.median(r.ref_s for r in timed), setup_raw_s=setup_raw_s,
        problems=problems,
    )
    result = {
        "correct": not problems,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
