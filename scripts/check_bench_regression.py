#!/usr/bin/env python3
"""Bench regression gate: compare a fresh BENCH_engine_throughput.json
against the tracked baseline in bench/baselines/.

Usage:
    check_bench_regression.py --fresh BENCH_engine_throughput.json \
        [--baseline bench/baselines/BENCH_engine_throughput.json] \
        [--tolerance 0.60]

Checks, in order of how much we trust them on shared hardware:

  1. `checks.*` — the bench binary's own pass/fail booleans (speedup,
     determinism). These are load-independent and must ALL be true in
     both files; any false is a hard failure at any tolerance.
  2. `config` — the fresh run must measure the same workload as the
     baseline (domain, rows, eps, query counts, seed); otherwise the
     QPS comparison is meaningless and the gate fails loudly instead of
     comparing apples to oranges.
  3. `warm_qps` — the headline throughput. A fresh run below
     `tolerance * baseline` fails. The default tolerance is 0.60:
     hosted CI runners are noisy-neighbour machines where 20-30 % swings
     are routine, so the gate is sized to catch real regressions (a
     mutex on the hot path, an accidental O(n^2)) while staying quiet
     about scheduler jitter. Tighten with --tolerance on quiet hardware.
  4. h(D) memo — both artifacts must carry the `memo_identity` and
     `memo_speedup_ge_3x` checks (so a stale artifact from before the
     memo section fails loudly) plus the `memo_vs_recompute` ratio, and
     the fresh memo throughput (`memo.qps`) is gated against the
     baseline at the same tolerance as warm_qps. The >= 3x
     memo-vs-recompute floor itself is the bench binary's own check,
     enforced by step 1.
  5. Spatial/ordered ops — both artifacts must carry the
     `quadtree_identity` and `hier_range_identity` checks (a stale
     artifact predating those ops fails loudly), and the fresh
     `ops.quadtree_qps` / `ops.hier_range_qps` are gated against the
     baseline at the same tolerance as warm_qps.

cold_qps is reported but never gated: it measures 3 one-shot queries
dominated by policy-graph setup, where a single page-cache miss moves
the number by 2x.
"""

import argparse
import json
import sys


def fail(message):
    print(f"BENCH GATE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(
        description="Gate warm-QPS against the tracked bench baseline.")
    parser.add_argument("--fresh", required=True,
                        help="JSON artifact of the run under test")
    parser.add_argument(
        "--baseline",
        default="bench/baselines/BENCH_engine_throughput.json",
        help="tracked baseline JSON (default: %(default)s)")
    parser.add_argument(
        "--tolerance", type=float, default=0.60,
        help="fresh warm_qps must be >= tolerance * baseline "
             "(default: %(default)s, sized for noisy hosted runners)")
    args = parser.parse_args()

    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load artifacts: {error}")

    REQUIRED_CHECKS = ("memo_identity", "memo_speedup_ge_3x",
                       "quadtree_identity", "hier_range_identity")
    REQUIRED_RATIOS = ("memo_vs_recompute",)
    for name, run in (("fresh", fresh), ("baseline", baseline)):
        checks = run.get("checks", {})
        if not checks:
            fail(f"{name} artifact has no checks block")
        missing = [key for key in REQUIRED_CHECKS if key not in checks]
        if missing:
            fail(f"{name} artifact predates the current bench sections "
                 f"(missing checks: {', '.join(missing)}) — regenerate it")
        bad = [key for key, ok in checks.items() if ok is not True]
        if bad:
            fail(f"{name} run failed its own checks: {', '.join(bad)}")
        for key in REQUIRED_RATIOS:
            if not isinstance(run.get(key), (int, float)):
                fail(f"{name} artifact is missing '{key}' — regenerate it")

    if fresh.get("config") != baseline.get("config"):
        fail("workload config drifted from the baseline — regenerate "
             f"the baseline. fresh={fresh.get('config')} "
             f"baseline={baseline.get('config')}")

    fresh_qps = fresh.get("warm_qps")
    base_qps = baseline.get("warm_qps")
    if not isinstance(fresh_qps, (int, float)) or not isinstance(
            base_qps, (int, float)) or base_qps <= 0:
        fail(f"warm_qps missing or non-positive: fresh={fresh_qps} "
             f"baseline={base_qps}")

    fresh_memo = fresh.get("memo", {}).get("qps")
    base_memo = baseline.get("memo", {}).get("qps")
    if not isinstance(fresh_memo, (int, float)) or not isinstance(
            base_memo, (int, float)) or base_memo <= 0:
        fail(f"memo.qps missing or non-positive: "
             f"fresh={fresh_memo} baseline={base_memo}")

    op_ratios = {}
    for key in ("quadtree_qps", "hier_range_qps"):
        fresh_ops = fresh.get("ops", {}).get(key)
        base_ops = baseline.get("ops", {}).get(key)
        if not isinstance(fresh_ops, (int, float)) or not isinstance(
                base_ops, (int, float)) or base_ops <= 0:
            fail(f"ops.{key} missing or non-positive: "
                 f"fresh={fresh_ops} baseline={base_ops}")
        op_ratios[key] = (fresh_ops, base_ops, fresh_ops / base_ops)

    ratio = fresh_qps / base_qps
    memo_ratio = fresh_memo / base_memo
    ops_report = "; ".join(
        f"{key} {f_qps:.0f} vs baseline {b_qps:.0f} ({r:.2f}x, same gate)"
        for key, (f_qps, b_qps, r) in op_ratios.items())
    report = (f"warm_qps {fresh_qps:.0f} vs baseline {base_qps:.0f} "
              f"({ratio:.2f}x, gate {args.tolerance:.2f}x); "
              f"memo {fresh_memo:.0f} vs baseline "
              f"{base_memo:.0f} ({memo_ratio:.2f}x, same gate); "
              f"{ops_report}; "
              f"memo_vs_recompute {fresh.get('memo_vs_recompute')}; "
              f"cold_qps {fresh.get('cold_qps')} "
              f"(reported, not gated)")
    if (ratio < args.tolerance or memo_ratio < args.tolerance
            or any(r < args.tolerance for _, _, r in op_ratios.values())):
        fail(report)
    print(f"BENCH GATE OK: {report}")


if __name__ == "__main__":
    main()
