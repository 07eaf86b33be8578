"""The hilb2 benchmark: seeded workloads, end-to-end metrics, layer traces.

Run one workload:

    python3 bench/run.py --workload square-sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation: one client in a closed loop runs the workload's items
in-process (each item starts when the previous one returns), pass after
pass, and starts another pass only while it would end no more than half a
pass after ``--seconds``.
With ``--trace 1`` it runs one pass that counts ``Permutation.__mul__``
calls, one untraced pass and one pass with spans around every layer
(written to ``.bench_out/``), and reports the per-layer metrics.  Every
item's output is checked in both modes.

Compare two sets of runs (files or directories holding the output of
runs of this script):

    python3 bench/run.py --compare BASE NEW

The last line of a run's output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``record``, holds the full run record.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "hilb2" / "__init__.py").is_file():
    sys.exit(f"error: no hilb2 sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import hilb2.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
# Time of reference_seconds() on a quiet machine.  Reported times are
# scaled by REFERENCE_S / (the reference time measured around each item):
# processes sharing the machine slow it down by up to 1.7x, in phases
# that last seconds, and the scaling cancels most of that.
REFERENCE_S = 0.0005
SLOT_S = 0.05
MAX_REPEATS = 20
TAIL_BEYOND = 10
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "refuse_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

FUNCTION_METRICS = (
    ("cli.main", ("calls", "self_s")),
    ("serialize.emit", ("self_s", "bytes")),
    ("hilbcover.build_construction",
     ("calls", "self_s", "total_s", "squared_points")),
    ("hilbcover.sign_and_splitting", ("self_s",)),
    ("hilbcover.fixed_components", ("self_s",)),
    ("hilbcover.hilb_square_cover", ("self_s",)),
    ("hilbcover.free_gset", ("self_s",)),
    ("permgroup.generate", ("calls", "self_s", "elements", "compositions")),
    ("permgroup.is_normal", ("self_s",)),
    ("permgroup.orbits", ("self_s",)),
    ("permgroup.normal_closure", ("self_s",)),
    ("permgroup.commutator_subgroup", ("self_s",)),
    ("permgroup.quotient_table", ("self_s",)),
    ("permgroup.group_from_elements", ("self_s",)),
    ("fpgroup.parse_presentation", ("self_s", "letters")),
    ("fpgroup.abelianization", ("self_s",)),
    ("fpgroup.coset_enumeration", ("calls", "self_s", "index")),
    ("fpgroup.permutation_realization", ("self_s",)),
    ("fpgroup.subgroups_of_abelian", ("calls", "self_s", "subgroups")),
    ("tables.GroupTable", ("calls", "validate_s", "cells")),
    ("monodromy.classify_hilb_covers", ("self_s",)),
    ("monodromy.wreath_quotient_check", ("self_s",)),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["unattributed.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    for name, fields in FUNCTION_METRICS:
        for f in fields:
            units[f"{name}.{f}"] = "s" if f.endswith("_s") else "count"
    units["permgroup.mul.calls"] = "count"
    for layer in tracing.LAYERS:
        units[f"{layer}.errors"] = "count"
    return units


# ---------------------------------------------------------------------------
# running items


def run_item(item) -> tuple[float, object]:
    """Run one item; return its wall time and its outcome.

    An unexpected exception becomes the outcome, so the checker reports
    the item as failed instead of the run stopping.
    """
    if item.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = hilb2.cli.main(list(item.argv))
            except Exception as error:  # reported as a failed item
                return perf_counter() - start, error
            seconds = perf_counter() - start
        return seconds, workloads.CliOutcome(code, out.getvalue(),
                                             err.getvalue())
    start = perf_counter()
    try:
        result = item.run()
    except Exception as error:  # reported as a failed item
        return perf_counter() - start, error
    return perf_counter() - start, result


def check_item(item, outcome) -> str | None:
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}: {outcome}"
    try:
        return item.check(outcome)
    except Exception as error:  # a malformed output is a failed item
        return f"output could not be checked: {type(error).__name__}: {error}"


_REFERENCE_PERM = tuple((7 * i + 3) % 300 for i in range(300))


def reference_seconds() -> float:
    """Fastest of three runs of a fixed task that touches no hilb2 code.

    The task is in the style of the library's hot loop (compose
    permutation tuples, store them in a dict), so that machine load slows
    it about as much as it slows the items.  How long it takes measures
    how fast the machine runs such code at that moment.
    """
    best = float("inf")
    p = _REFERENCE_PERM
    for _ in range(3):
        start = perf_counter()
        seen, q = {}, p
        for k in range(40):
            q = tuple(p[v] for v in q)
            seen[q] = k
        best = min(best, perf_counter() - start)
    return best


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference timings
    into a time at reference speed."""
    return 2 * REFERENCE_S / (before + after)


class Batch:
    """Times and failures of every item run so far."""

    def __init__(self, items) -> None:
        self.items = items
        self.times: dict[str, list[float]] = {item.key: [] for item in items}
        self.raw: dict[str, list[float]] = {item.key: [] for item in items}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, repeat: bool = True) -> float:
        """Run every item; return the summed raw item time.

        With ``repeat``, an item shorter than SLOT_S runs again, back to
        back, until its runs in this pass add up to SLOT_S (at most
        MAX_REPEATS times), so small items get enough samples for a steady
        median.  Traced passes run each item once, so that counts are per
        pass.
        """
        busy = 0.0
        for item in self.items:
            gc.collect()
            before = reference_seconds()
            raws = []
            while not raws or (repeat and sum(raws) < SLOT_S
                                and len(raws) < MAX_REPEATS):
                seconds, outcome = run_item(item)
                raws.append(seconds)
                self.attempted += 1
                problem = check_item(item, outcome)
                if problem is not None:
                    self.failures.append(f"{item.key}: {problem}")
            scale = speed_scale(before, reference_seconds())
            busy += sum(raws)
            self.raw[item.key] += raws
            self.times[item.key] += [t * scale for t in raws]
        return busy


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload: str, seed: int) -> float:
    """Time from launching a fresh interpreter to being ready to run,
    scaled to reference speed.

    The probe starts ``python3``, imports the benchmark and ``hilb2``
    (which parses the catalog) and builds the workload's inputs, which is
    everything a run does before its first timed item.
    """
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
            f"run.workloads.build_items({workload!r}, {seed}); "
            f"print('ready', flush=True)")
    before = reference_seconds()
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=120)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up probe exited with code {status}")
    return elapsed * speed_scale(before, reference_seconds())


# ---------------------------------------------------------------------------
# metrics


def end_to_end(batch: Batch, busy: float, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metric values, plus the facts the run record keeps.

    Each item's time is the median of its scaled repeats in the run; the
    percentiles are then taken over the workload's items.
    """
    per_item = {key: statistics.median(t) for key, t in batch.times.items()}
    values = sorted(per_item.values())
    n = len(values)
    beyond = min(TAIL_BEYOND, n - 1)  # fewer only in tests' tiny batches
    refused = [per_item[item.key] for item in batch.items if item.refused]
    metrics = {
        "setup_s": setup_s,
        "items_per_s": n / sum(values),
        "item_p50_ms": 1e3 * statistics.median(values),
        "item_tail_ms": 1e3 * values[n - beyond - 1],
        "refuse_p50_ms": 1e3 * statistics.median(refused) if refused else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    facts = {
        "items": n,
        "refused_items": len(refused),
        "refused_share_count": len(refused) / n,
        "refused_share_time": sum(refused) / sum(values),
        "tail_percentile": 100 * (n - beyond) / n,
        "tail_items_beyond": beyond,
        "batch_items_per_s": batch.attempted / busy,
        "item_runs": {key: len(t) for key, t in batch.times.items()},
        "item_ms": {key: 1e3 * t for key, t in per_item.items()},
        "item_raw_ms": {key: 1e3 * statistics.median(t)
                        for key, t in batch.raw.items()},
    }
    return metrics, facts


def per_layer(recorder, traced_wall: float, untraced_wall: float,
              mul_calls: int) -> dict:
    metrics = {f"{layer}.self_s": s
               for layer, s in recorder.layer_self().items()}
    metrics["unattributed.self_s"] = traced_wall - sum(metrics.values())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    for name, fields in FUNCTION_METRICS:
        stats = recorder.stats.get(name, tracing.SpanStats())
        for f in fields:
            if f == "calls":
                value = stats.calls
            elif f in ("self_s", "validate_s"):
                value = stats.self_s
            elif f == "total_s":
                value = stats.total_s
            else:
                value = stats.counts[f]
            metrics[f"{name}.{f}"] = value
    metrics["permgroup.mul.calls"] = mul_calls
    for layer in tracing.LAYERS:
        metrics[f"{layer}.errors"] = sum(recorder.errors[layer].values())
    return metrics


def write_spans(recorder, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    origin = recorder.spans[0][3] if recorder.spans else 0.0
    with open(path, "w") as handle:
        json.dump({
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [[i, p, name, start - origin, end - origin]
                      for i, p, name, start, end in
                      sorted(recorder.spans)],
        }, handle)
    return path


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# a run


def measure(workload: str, seed: int, seconds: float, trace: bool,
            items=None) -> dict:
    """One benchmark run; returns the run record.

    ``items`` replaces the workload's generated items (tests use a few).
    """
    os.environ.pop("HILB2_CAP", None)
    batch = Batch(workloads.build_items(workload, seed) if items is None
                  else items)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "git_sha": git_sha(), "nproc": os.cpu_count(),
    }
    if trace:
        # The counted pass goes first and also warms the process up, so
        # that the untraced and traced passes compare like with like.
        mul_calls = tracing.count_mul_calls(lambda: batch.run_pass(False))
        untraced = batch.run_pass(False)
        recorder = tracing.Recorder()
        restore = tracing.install(recorder)
        try:
            traced = batch.run_pass(False)
        finally:
            restore()
        metrics = per_layer(recorder, traced, untraced, mul_calls)
        record["passes"] = 3
        record["errors_by_type"] = {
            layer: dict(c) for layer, c in recorder.errors.items() if c}
        record["spans"] = len(recorder.spans)
        record["span_file"] = str(
            write_spans(recorder, workload, seed).relative_to(ROOT))
        units = per_layer_units()
    else:
        # Set-up probes are spread between the passes, so that they see
        # the machine in the same states the passes do.  The first one
        # only warms the file cache.
        setup_probe(workload, seed)
        probes = []
        busy = elapsed = 0.0
        passes = 0
        while True:
            if len(probes) < SETUP_PROBES:
                probes.append(setup_probe(workload, seed))
            start = perf_counter()
            busy += batch.run_pass()
            last = perf_counter() - start
            elapsed += last
            passes += 1
            # Another pass may end at most half a pass after --seconds.
            if elapsed + last / 2 > seconds:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(workload, seed))
        metrics, facts = end_to_end(batch, busy, statistics.median(probes))
        record["passes"] = passes
        record.update(facts)
        record["setup_probes_s"] = probes
        units = END_TO_END_UNITS
    record["attempted"] = batch.attempted
    record["failed"] = len(batch.failures)
    record["failed_ratio"] = len(batch.failures) / batch.attempted
    record["failures"] = list(dict.fromkeys(batch.failures))
    record["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    return record


def print_run(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"passes {record['passes']}  attempted {record['attempted']}  "
          f"failed {record['failed']}  failed_ratio {record['failed_ratio']:g}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


# ---------------------------------------------------------------------------
# compare mode


def load_records(path: Path) -> list[dict]:
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    records = []
    for f in files:
        if not f.is_file():
            continue
        for line in f.read_text().splitlines():
            if line.startswith("record "):
                records.append(json.loads(line[len("record "):]))
    return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """improved / unchanged / worse / unresolved for one metric.

    Improved: the new runs win at least nine tenths of the pairs (runs
    paired in order) and the medians differ by more than the base runs'
    interquartile distance.  Otherwise, when either side's spread is
    wider than the bound the metric is unresolved, unless every new run
    reads better than every base run.  Otherwise it is worse when the new
    median is worse than the base median by more than the bound.
    """
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = _quartiles(base)
    n1, nm, n3 = _quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (nm - bm) > 0
            and abs(nm - bm) > b3 - b1):
        return "improved"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        if min(sign * n for n in new) > max(sign * b for b in base):
            return "unchanged"
        return "unresolved"
    if bm and sign * (bm - nm) / abs(bm) > bound:
        return "worse"
    return "unchanged"


def _summary(values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base_path: Path, new_path: Path) -> int:
    """Print one row per workload and end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load_records(base_path), load_records(new_path)

    def series(records, workload, metric):
        runs = sorted((r for r in records
                       if r["workload"] == workload and not r["trace"]),
                      key=lambda r: r["seed"])
        return [r["metrics"][metric]["value"] for r in runs]

    print(f"{'workload':<14} {'metric':<14} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            b = series(base, w["name"], m["name"])
            n = series(new, w["name"], m["name"])
            if not b or not n:
                print(f"{w['name']:<14} {m['name']:<14} no runs")
                continue
            change = statistics.median(n) / statistics.median(b) - 1
            print(f"{w['name']:<14} {m['name']:<14} {_summary(b):>30} "
                  f"{_summary(n):>30} {change:>+8.1%} {m['bound']:>6.2f}  "
                  f"{verdict(b, n, m['better'], m['bound'])}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    print_run(measure(args.workload, args.seed, args.seconds,
                      bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
