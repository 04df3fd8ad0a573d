"""Gate on the E12 IPC gap: the pool must not regress toward the old ratio.

The E12 artifact predating the pipelined shared-memory transport put the
worker pool at ~0.014x the in-process engine (a ~70x IPC penalty per
query).  This check reads a freshly written ``BENCH_E12.json`` and asserts
the best pool mode now clears a floor well above that baseline, so a
transport regression cannot land silently.

The floor is deliberately loose (default 12x the old baseline): CI boxes
are small and noisy, and the point is to catch "the optimization fell
off", not to benchmark precisely.

Usage::

    python scripts/check_e12_ratio.py [--artifact bench-artifacts/BENCH_E12.json]
                                      [--baseline 0.0142] [--min-gain 12.0]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: pool_concurrent_qps / single_process_qps in the pre-optimization artifact
OLD_RATIO = 0.0142


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifact",
        type=Path,
        default=Path("bench-artifacts/BENCH_E12.json"),
        help="E12 artifact to check (written by benchmarks/test_e12_scatter_gather.py)",
    )
    parser.add_argument("--baseline", type=float, default=OLD_RATIO)
    parser.add_argument(
        "--min-gain",
        type=float,
        default=12.0,
        help="required improvement factor over the baseline ratio",
    )
    args = parser.parse_args()

    if not args.artifact.exists():
        print(f"FAILED: artifact {args.artifact} not found — run the E12 benchmark first")
        return 1
    metrics = json.loads(args.artifact.read_text())["metrics"]

    single = metrics.get("single_process_qps")
    ratio = metrics.get("pool_vs_single_ratio")
    if ratio is None:  # artifact predates the metric; derive it
        best = max(
            metrics.get("pool_serial_qps", 0.0),
            metrics.get("pool_concurrent_qps", 0.0),
        )
        ratio = best / single if single else 0.0

    floor = args.baseline * args.min_gain
    print(
        f"E12 pool/in-process ratio: {ratio:.4f} "
        f"(baseline {args.baseline:.4f}, required >= {floor:.4f}, "
        f"shm_threshold={metrics.get('shm_threshold')!r}, cores={metrics.get('cores')})"
    )
    if ratio < floor:
        print(
            f"FAILED: ratio {ratio:.4f} is below {floor:.4f} — the serving "
            f"transport has regressed toward the pre-shm baseline"
        )
        return 1
    print(f"ok: the IPC gap improved {ratio / args.baseline:.1f}x over the old baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
