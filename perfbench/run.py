"""Benchmark of the resurge command line on seeded corpora.

One run generates the corpus of one workload from ``--seed``, runs the
command in a fresh process (peak memory, cold outputs), then repeats it
in-process for ``--seconds`` with the interpreter and imports warm, checks
the outputs against what the generator planted, and prints the metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload catalog-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --record BENCH.json

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  ``--workload all`` runs every
workload both ways, each in its own process, and prints every metric with
its unit.  See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import corpus as corpus_mod
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 9
# On a shared host the CPU speed of one process swings by up to 1.5x within
# a minute (a fixed loop timed once a second reads 13 to 21 ms).  Command
# run times are therefore rescaled to a machine on which reference_work()
# takes REFERENCE_S, timing that loop between repetitions.  Raw wall times
# stay in the ``record`` line.
REFERENCE_S = 0.025
# timed repetitions per run, at least, however long each one takes
MIN_REPS = 3
# a child of ``--workload all`` gets this long beyond its measuring time
CHILD_SLACK_S = 170

END_TO_END = {
    "run_s": "s",
    "songs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "curation.match_s": "s",
    "curation.match_pairs": "count",
    "curation.us_per_pair": "us",
    "curation.curate_s": "s",
    "curation.kept_frac": "fraction",
    "series.window_s": "s",
    "granger.batch_s": "s",
    "granger.ms_per_song": "ms",
    "granger.test_ms.p50": "ms",
    "granger.test_ms.p99": "ms",
    "granger.songs_tested": "count",
    "granger.songs_failed": "count",
    "granger.songs_flagged": "count",
    "numerics.ols_calls": "count",
    "numerics.ols_s": "s",
    "numerics.fsurv_calls": "count",
    "numerics.fsurv_s": "s",
    "numerics.nls_calls": "count",
    "numerics.nls_iters": "count",
    "numerics.nls_s": "s",
    "numerics.nls_converged_frac": "fraction",
    "bass.batch_s": "s",
    "bass.ms_per_song": "ms",
    "bass.fit_ms.p50": "ms",
    "bass.fit_ms.p99": "ms",
    "bass.songs_fitted": "count",
    "bass.songs_failed": "count",
    "bass.rmse_within_max_frac": "fraction",
    "ingest.load_s": "s",
    "ingest.rows_read": "count",
    "ingest.us_per_row_read": "us",
    "ingest.write_s": "s",
    "ingest.rows_written": "count",
    "ingest.bytes_written": "bytes",
    "ingest.self_s": "s",
    "curation.self_s": "s",
    "series.self_s": "s",
    "granger.self_s": "s",
    "numerics.self_s": "s",
    "bass.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}

TIME_UNITS = ("s", "ms", "us")

# command line of the cold run: the same entry point, in a fresh interpreter
_COLD_MAIN = "import sys; from resurge.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _median_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def reference_work() -> float:
    """Fixed work of the kinds the program does: interpreter loops, dict and
    string handling, small-array numpy calls, and a sort of a larger array."""
    counts: dict[str, int] = {}
    total = 0
    for i in range(20_000):
        text = str(i * 7919)
        counts[text[-3:]] = counts.get(text[-3:], 0) + len(text)
        total += i * i % 13
    values = np.arange(64.0)
    for _ in range(1_500):
        values = np.sqrt(values * values + 1.0) - 0.5
    rows = []
    for i in range(6_000):
        day, value = f"2021-01-{i % 28 + 1:02d},{i * 1.5!r}".split(",")
        rows.append((day.strip(), float(value)))
    text = json.dumps(rows[:2_000])
    big = np.sort(np.random.default_rng(0).random(400_000))
    return total + len(counts) + float(values.sum()) + len(text) + float(big[0])


class ReferenceClock:
    """Times calls in wall seconds and in seconds at reference speed.

    reference_work() is timed before the first call and after every call;
    each call is rescaled by REFERENCE_S over the mean of the two timings
    around it.
    """

    def __init__(self) -> None:
        self._last = self._reference()

    @staticmethod
    def _reference() -> float:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start

    def time(self, fn):
        """``fn()``'s result, its wall seconds, and its seconds at reference speed."""
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = self._reference()
        scaled = wall * REFERENCE_S / ((self._last + after) / 2)
        self._last = after
        return result, wall, scaled


def measure_setup() -> list[float]:
    """Wall seconds of fresh interpreters that import resurge.cli.

    The wait is a plain blocking wait: with a timeout, subprocess polls in
    steps of up to 50 ms, which would quantize the measurement.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import resurge.cli"], env=_child_env())
        code = proc.wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"importing resurge.cli exited with {code}")
    return times


def cold_run(command: list[str], out_dir: Path, log: Path) -> tuple[int, float]:
    """Run the command in a fresh process; return its exit code and peak RSS in MB."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen([sys.executable, "-c", _COLD_MAIN, *command, "--out-dir", str(out_dir)],
                                env=_child_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def warm_run(cli, command: list[str], out_dir: Path, tracer=None) -> tuple[int, str]:
    """One in-process command run; returns its exit code and captured output.

    An exception escaping the command counts as a failed run, like a
    non-zero exit, so that the run's songs count as failed.
    """
    argv = [*command, "--out-dir", str(out_dir)]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(tracing.ROOT_SPAN, "cli", cli.main, argv)
        except Exception:
            code = 1
            buffer.write(traceback.format_exc())
    return code, buffer.getvalue()


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return False
    return all(filecmp.cmp(a / rel, b / rel, shallow=False) for rel in files_a)


def _close(a: float, b: float) -> bool:
    # reports carry 12 significant digits
    return abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def check_outputs(corpus, out_dir: Path, stdout: str) -> tuple[list[str], int]:
    """Problems found in one run's outputs, and the number of failed songs."""
    problems: list[str] = []
    if corpus.workload == "corpus-ccdf":
        totals = np.asarray(corpus.totals, dtype=np.float64)
        q1, median, q3 = np.quantile(totals, [0.25, 0.5, 0.75])
        expected = {"n_songs": totals.size, "min": totals.min(), "q1": q1, "median": median,
                    "q3": q3, "max": totals.max()}
        summary = _read_jsonl(out_dir / "ccdf_summary.jsonl")
        if len(summary) != 1:
            problems.append(f"ccdf summary has {len(summary)} rows")
        else:
            for key, value in expected.items():
                if not _close(float(summary[0][key]), float(value)):
                    problems.append(f"ccdf summary {key} is {summary[0][key]}, expected {value}")
        points = _read_jsonl(out_dir / "ccdf_points.jsonl")
        distinct = np.unique(totals)
        above = [float(np.count_nonzero(totals > v)) / totals.size for v in distinct]
        got = [(p["popularity"], p["fraction_above"]) for p in points]
        if len(got) != distinct.size or not all(
            _close(g[0], v) and _close(g[1], f) for g, v, f in zip(got, distinct, above)
        ):
            problems.append("ccdf points differ from the totals the generator wrote")
        return problems, 0

    curate_rows = {row["song_id"]: row for row in _read_jsonl(out_dir / "curate_report.jsonl")}
    for song_id, stage in corpus.planted_stage.items():
        row = curate_rows.get(song_id)
        kept = song_id in corpus.planted_kept
        if row is None or row["stage_reached"] != stage or row["kept"] != kept:
            problems.append(f"{song_id}: planted stage {stage} kept={kept}, report says {row}")
    printed = [tuple(line.rsplit(": ", 1)) for line in stdout.splitlines()[:len(corpus.planted_funnel)]]
    if [(name, int(count)) for name, count in printed] != corpus.planted_funnel:
        problems.append(f"printed funnel {printed} differs from planted {corpus.planted_funnel}")

    granger_rows = _read_jsonl(out_dir / "granger_report.jsonl")
    flagged = {row["song_id"] for row in granger_rows if row.get("causal")}
    missed = [sid for sid in corpus.driven if sid not in flagged]
    if missed:
        problems.append(f"driven songs not flagged: {missed}")
    failed = {row["song_id"] for row in granger_rows if row.get("error")}
    failed |= {row["song_id"] for row in _read_jsonl(out_dir / "bass_report.jsonl") if row.get("error")}
    return problems, len(failed)


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def context(corpus, args) -> dict:
    return {
        "workload": corpus.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "corpus": corpus.shape,
    }


def measure(args, work: Path) -> dict:
    """Everything one run reports: context, metrics, correctness."""
    corpus = corpus_mod.generate(args.workload, args.seed, work / "in", args.scale)
    record = {"context": context(corpus, args)}

    setup = measure_setup() if args.trace == 0 else []
    cold_code, peak_rss_mb = cold_run(corpus.command, work / "cold", work / "cold.log")

    from resurge import cli

    codes = [cold_code]
    out = work / "warm"
    code, stdout = warm_run(cli, corpus.command, out)  # untimed: fills lazy caches
    codes.append(code)

    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layer_runs, test_ms, fit_ms = [], [], [], [], []
    clock = ReferenceClock()
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds or len(plain) + len(traced) < MIN_REPS:
        if tracer is not None and len(traced) < len(plain):
            tracer.clear()
            with tracer.installed():
                (code, stdout), wall, scaled = clock.time(lambda: warm_run(cli, corpus.command, out, tracer))
            traced.append((wall, scaled))
            factor = scaled / wall
            layer_runs.append({
                name: value * factor if PER_LAYER_UNITS[name] in TIME_UNITS else value
                for name, value in tracing.run_metrics(tracer.spans, _dir_bytes(out)).items()
            })
            test_ms += [t * factor for t in tracing.call_ms(tracer.spans, "granger.granger_test")]
            fit_ms += [t * factor for t in tracing.call_ms(tracer.spans, "bass.fit_bass")]
        else:
            (code, stdout), wall, scaled = clock.time(lambda: warm_run(cli, corpus.command, out))
            plain.append((wall, scaled))
        codes.append(code)

    problems, failed_songs = [], 0
    if all(c == 0 for c in codes):
        try:
            problems, failed_songs = check_outputs(corpus, out, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable outputs: {exc!r}"]
        if not _same_tree(out, work / "cold"):
            problems.append("outputs of two runs differ")
    else:
        problems.append(f"exit codes {sorted(set(codes))}: {stdout.strip()[-500:]}")
    attempted = corpus.n_songs * len(codes)
    if problems:
        failed = attempted
    else:
        failed = failed_songs * len(codes)

    run_s, q1, q3 = _median_quartiles([scaled for _, scaled in plain])
    wall_s, wall_q1, wall_q3 = _median_quartiles([wall for wall, _ in plain])
    record["run_s"] = {"median": run_s, "q1": q1, "q3": q3, "n": len(plain)}
    record["wall_s"] = {"median": wall_s, "q1": wall_q1, "q3": wall_q3, "n": len(plain)}
    if args.trace == 0:
        metrics = {
            "run_s": run_s,
            "songs_per_s": corpus.n_songs / run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        for name, samples in (("granger.test_ms", test_ms), ("bass.fit_ms", fit_ms)):
            metrics[f"{name}.p50"] = tracing.percentile(samples, 50)
            metrics[f"{name}.p99"] = tracing.percentile(samples, 99)
        metrics["trace.overhead_frac"] = statistics.median(scaled for _, scaled in traced) / run_s - 1.0
        record["samples"] = {"traced_runs": len(traced), "granger.test_ms": len(test_ms),
                             "bass.fit_ms": len(fit_ms)}
        units = PER_LAYER_UNITS
    record["failed_frac"] = failed / attempted
    record["problems"] = problems
    record["result"] = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    return record


def run_one(args) -> int:
    # one CPU for the measured calls, the reference loop and their children,
    # so that the reference times the same CPU the program runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print("record " + json.dumps({k: v for k, v in record.items() if k != "result"}))
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"failed_frac {record['failed_frac']:.6g} fraction")
    for name, entry in record["result"]["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(record["result"]))
    return 0


def run_all(args) -> int:
    """Every workload with tracing off and on, each in a fresh process."""
    results = []
    for workload in corpus_mod.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                    "--scale", str(args.scale)]
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=args.seconds + CHILD_SLACK_S)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
            record["result"] = json.loads(lines[-1])
            results.append(record)
            print(f"== {workload} trace={trace} correct={record['result']['correct']} "
                  f"failed_frac={record['failed_frac']:.6g}")
            for name, entry in record["result"]["metrics"].items():
                print(f"   {name} {entry['value']:.6g} {entry['unit']}")
    if args.record:
        Path(args.record).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="catalog-scan, long-revivals, corpus-ccdf or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor, for smoke tests")
    parser.add_argument("--record", help="with --workload all: write every result to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "resurge" / "cli.py").is_file():
        print(f"error: no resurge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import resurge

    if Path(resurge.__file__).resolve().parent != SRC / "resurge":
        print(f"error: imported resurge from {resurge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in corpus_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
