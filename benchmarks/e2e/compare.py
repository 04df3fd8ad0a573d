"""Compare two sets of untraced runs: ``python3 benchmarks/e2e/compare.py A.jsonl B.jsonl``.

Each file holds run records as ``run.py --out FILE`` appends them (one JSON
object per line).  Prints one row per end-to-end metric x workload: both
medians, the regression bound and a verdict

* ``same``        B's median is no worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  the run-to-run spread (interquartile range over the median,
                  the wider of the two sides) exceeds the bound, so the runs
                  cannot tell (also when a side has fewer than two runs).

Exit status 1 when any row regressed.  Bounds of the metrics BENCHMARK.json
gates come from there; the workload-specific extras carry theirs below.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

#: (bound, absolute?) of the end-to-end metrics reported beside the gated ones
EXTRA_BOUNDS: dict[str, tuple[float, bool]] = {
    "latency_p95_ms": (0.25, False),
    "latency_p99_ms": (0.25, False),
    "error_frac": (0.001, True),
    "slo_miss_frac": (0.005, True),
    "search_latency_p50_ms": (0.25, False),
    "spinql_latency_p50_ms": (0.25, False),
    "spinql_latency_p95_ms": (0.25, False),
    "ingest_batch_p50_ms": (0.15, False),
    "first_query_after_ingest_p50_ms": (0.15, False),
}
HIGHER_IS_BETTER = {"throughput_qps"}


def bounds() -> dict[str, tuple[float, bool]]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    table = {metric["name"]: (metric["bound"], False) for metric in declared}
    table.update(EXTRA_BOUNDS)
    return table


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per untraced full-size run in the file."""
    values: dict[tuple[str, str], list[float]] = {}
    for record in map(json.loads, Path(path).read_text().splitlines()):
        if record.get("trace") or record.get("quick"):
            continue
        for section in ("metrics", "detail"):
            for metric, entry in record.get(section, {}).items():
                if isinstance(entry, dict) and "value" in entry:
                    values.setdefault((record["workload"], metric), []).append(entry["value"])
    return values


def spread(values: list[float], absolute: bool) -> float | None:
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    if absolute:
        return high - low
    return (high - low) / abs(statistics.median(values)) if statistics.median(values) else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    first, second = load(argv[0]), load(argv[1])
    table = bounds()
    print(f"{'workload':<24}{'metric':<34}{'A median':>12}{'B median':>12}{'runs':>7}"
          f"{'worse by':>10}{'spread':>9}{'bound':>8}  verdict")
    regressed = 0
    for (workload, metric) in sorted(set(first) & set(second)):
        if metric not in table:
            continue
        bound, absolute = table[metric]
        a, b = first[(workload, metric)], second[(workload, metric)]
        median_a, median_b = statistics.median(a), statistics.median(b)
        change = median_a - median_b if metric in HIGHER_IS_BETTER else median_b - median_a
        worse = change if absolute else (change / abs(median_a) if median_a else 0.0)
        spreads = [spread(a, absolute), spread(b, absolute)]
        widest = None if None in spreads else max(spreads)
        if widest is None or widest > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "regressed"
            regressed += 1
        else:
            verdict = "same"
        shown = "n/a" if widest is None else f"{widest:.4f}"
        print(f"{workload:<24}{metric:<34}{median_a:>12.4f}{median_b:>12.4f}"
              f"{f'{len(a)}/{len(b)}':>7}{worse:>10.4f}{shown:>9}{bound:>8.3f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
