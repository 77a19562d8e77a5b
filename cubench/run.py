"""Run one cubelin benchmark workload and print its metrics.

    python3 cubench/run.py --workload maps-int --seed 3 --seconds 25 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/`` beside this directory, never from an installed copy.

With ``--trace 0`` the workload runs closed-loop for ``--seconds`` of wall
time and reports the end-to-end metrics.  With ``--trace 1`` it runs every
unit of every workload's fixed trace set twice, untraced and traced, and
reports the per-layer metrics of each workload plus its tracing overhead;
``--seconds`` does not apply there.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11

# Co-tenants on a shared host slow this process down by up to 1.6x in
# phases that last tens of seconds, longer than a run.  Each timed span is
# therefore scaled to a nominal machine speed: the speed at which a fixed
# pure-Python probe, independent of cubelin, takes REFERENCE_S.  The probe
# runs between units, at least every PROBE_EVERY seconds, and a unit is
# scaled by the median factor of the probes within PROBE_WINDOW of it.
REFERENCE_S = 0.001
PROBE_EVERY = 0.5
PROBE_WINDOW = 2.0

END_TO_END = {"setup_s": "s", "cand_per_s": "1/s", "cand_ms_p50": "ms"}


def git_rev() -> str:
    """HEAD's commit id read from ``.git``, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


_BIG = 3 ** 60
_BIG_DEN = 7 ** 40


def _probe_work() -> int:
    # small ints, tuple keys, dict updates and big-number Fractions: the
    # kinds of work the search and the maps workloads do
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(200):
        f = Fraction(_BIG + i, _BIG_DEN + 3 * i) * Fraction(i % 5 + 1, i % 3 + 2)
        key = (i % 13, i % 17)
        table[key] = table.get(key, 0) + f.numerator % 1009
        total = (total * 31 + table[key]) % 1000003
    return total


def speed_factor() -> float:
    """REFERENCE_S over the probe's current duration, median of five."""
    durations = []
    for _ in range(5):
        started = time.perf_counter()
        _probe_work()
        durations.append(time.perf_counter() - started)
    return REFERENCE_S / statistics.median(durations)


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, count) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def setup(workload, seed: int):
    """Import the library and build the run's inputs, several times; the
    last import is the one the run uses."""
    import workloads

    before = speed_factor()
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        lib = workloads.import_library()
        corpus = workload.build(lib, seed)
        times.append(time.perf_counter() - started)
    scale = (before + speed_factor()) / 2
    return lib, corpus, statistics.median(times) * scale


def run(name: str, seed: int, seconds: float, trace: bool, trace_units: int | None = None):
    """Run one workload; return (lines to print, result object)."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load1_start": os.getloadavg()[0],
    }
    lib, corpus, setup_s = setup(workload, seed)
    meta["backend"] = lib.package.BACKEND

    if trace:
        metrics, units = trace_all(lib, seed, trace_units)
        metric_units = {name: tracing.metric_unit(name) for name in metrics}
    else:
        units = timed_loop(workload, lib, corpus, seconds)
        per_s, ms_p50 = throughput(units)
        metrics = {"setup_s": setup_s, "cand_per_s": per_s, "cand_ms_p50": ms_p50}
        metric_units = END_TO_END

    meta["load1_end"] = os.getloadavg()[0]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    failures = [f"{op}: {what}" for u in units for op, what in u.failures]
    lines = [f"meta {json.dumps(meta)}"]
    lines += [f"failure {f}" for f in failures[:20]]
    lines.append(f"{'failed_frac':<40} {failed / attempted:.6g}  ({failed}/{attempted} ops)")
    lines += [f"{k:<40} {v:.6g} {metric_units[k]}" for k, v in metrics.items()]
    if not trace:
        lines += detail_lines(units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metric_units[k]} for k, v in metrics.items()},
    }
    return lines, result


def timed_loop(workload, lib, corpus, seconds: float) -> list:
    """Closed loop for ``seconds`` of wall time, each unit speed-scaled."""
    units, spans = [], []
    probes = [(time.perf_counter(), speed_factor())]
    started = probes[0][0]
    while True:
        begin = time.perf_counter()
        units.append(workload.run_unit(lib, corpus, len(units)))
        end = time.perf_counter()
        spans.append((begin, end))
        done = end - started >= seconds
        if done or end - probes[-1][0] >= PROBE_EVERY:
            probes.append((time.perf_counter(), speed_factor()))
        if done:
            break
    for unit, (begin, end) in zip(units, spans):
        unit.scale = statistics.median(
            f for t, f in probes if begin - PROBE_WINDOW <= t <= end + PROBE_WINDOW
        )
    return units


def trace_all(lib, seed: int, trace_units: int | None):
    """Every workload's fixed trace set, each unit untraced and then traced.

    Each workload reports the layers it works in, so a traced run covers
    all four whichever workload it was started for.  The sets are fixed
    in size, not in time, so that call counts repeat for a given seed.
    """
    import tracing
    import workloads

    metrics: dict[str, float] = {}
    units = []
    for name, workload in workloads.WORKLOADS.items():
        corpus = workload.build(lib, seed)
        count = trace_units or workload.trace_units
        tracer = tracing.Tracer(lib)
        plain, traced = [], []
        for k in range(count):
            # back to back, so both runs of a unit see the same machine speed
            plain.append(workload.run_unit(lib, corpus, k))
            traced.append(workload.run_unit(lib, corpus, k, tracing=tracer.active))
        plain_s = sum(u.seconds for u in plain)
        overhead = sum(u.seconds for u in traced) / plain_s - 1 if plain_s else 0.0
        metrics.update(tracer.metrics(name, overhead))
        units += plain + traced
    return metrics, units


def throughput(units, scaled: bool = True) -> tuple[float, float]:
    """(inputs per second, median milliseconds per input) over the units
    that ran, speed-scaled unless ``scaled`` is false."""
    done = [u for u in units if u.seconds > 0]
    if not done:
        return 0.0, 0.0
    seconds = [u.seconds * (u.scale if scaled else 1.0) for u in done]
    per_input_ms = [1000 * s / u.inputs for s, u in zip(seconds, done)]
    return sum(u.inputs for u in done) / sum(seconds), statistics.median(per_input_ms)


def detail_lines(units) -> list[str]:
    """Unscaled figures and the speed factors, then the per-operation
    latencies of the maps workloads: p50 and tail."""
    per_s, ms_p50 = throughput(units, scaled=False)
    scales = sorted(u.scale for u in units)
    lines = [
        f"{'cand_per_s (unscaled)':<40} {per_s:.6g} 1/s",
        f"{'cand_ms_p50 (unscaled)':<40} {ms_p50:.6g} ms",
        f"{'speed factor min/median/max':<40} "
        f"{scales[0]:.4g} {statistics.median(scales):.4g} {scales[-1]:.4g}",
    ]
    for op in ("verify", "invert", "corollary"):
        samples = [1000 * u.op_seconds[op] * u.scale for u in units if op in u.op_seconds]
        if not samples:
            continue
        lines.append(f"{op + '_ms_p50':<40} {statistics.median(samples):.6g} ms  (n={len(samples)})")
        t = tail(samples)
        text = "n/a (fewer than 11 samples)" if t is None else f"{t[0]:.6g} ms  (p{t[1]:.1f} of n={t[2]})"
        lines.append(f"{op + '_ms_tail':<40} {text}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubelin" / "__init__.py").is_file():
        print(f"error: no cubelin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
