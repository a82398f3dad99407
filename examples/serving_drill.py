#!/usr/bin/env python3
"""Overload day: the fabric serving layer riding out a fault storm.

The control plane is a long-running shared service (§4.2): tenants
allocate slices, re-stripe circuits, push traffic-matrix updates, and
query telemetry, open-loop -- the requests keep coming whether or not
the service is keeping up.  This drill offers ~3x the admitted
capacity while a controller-crash + RPC-timeout storm rolls through,
and shows every overload defense firing in sequence:

1. token-bucket admission refuses the overflow (hot tenant first);
2. the bounded queue sheds explicitly, worst-class-newest first;
3. the retry budget caps downstream attempts at 1.5x starts;
4. the circuit breaker fast-fails while the controller is down;
5. brownout defers maintenance, batches updates, serves cached
   telemetry -- and recovers when the storm passes;
6. the commit log replays to the exact live fabric state (nothing
   silently dropped, nothing double-applied).

Run: ``python examples/serving_drill.py [--seed N] [--full] [--tenants N]``
"""

import argparse
from collections import Counter

from repro.analysis.tables import render_table
from repro.serve.drill import run_serve_drill
from repro.serve.requests import Outcome


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="the 100k-request profile instead of the smoke one")
    parser.add_argument("--tenants", type=int, default=None,
                        help="tenant population override (default: pinned profile)")
    args = parser.parse_args()

    result = run_serve_drill(
        seed=args.seed, smoke=not args.full, num_tenants=args.tenants
    )
    summary = result["summary"]
    report = result["report"]

    print(f"Overload drill  seed={args.seed}  "
          f"offered={summary['offered']} requests "
          f"at {summary['offered_rate_per_s']:.0f}/s "
          f"over {summary['horizon_s']:.1f}s")

    # ------------------------------------------------------------------ #
    # Where every request ended up (the partition invariant).
    # ------------------------------------------------------------------ #
    print("\nOutcome partition (offered == rejected + shed + admitted):")
    rows = []
    for outcome in Outcome:
        n = summary[outcome.value]
        rows.append([outcome.value, f"{n}", f"{n / summary['offered']:.1%}"])
    print(render_table(["outcome", "count", "share"], rows))

    # ------------------------------------------------------------------ #
    # The defenses, one line each.
    # ------------------------------------------------------------------ #
    print("\nOverload defenses:")
    cap = 1.0 + report.config.retry_ratio
    print(f"  admission   rejected {summary['rejected']} "
          f"(hot tenant throttled to its fair share)")
    print(f"  queue       shed {summary['shed']} explicitly "
          f"({len(report.shed_records)} shed records, none silent)")
    print(f"  retries     {summary['downstream_attempts']} attempts / "
          f"{summary['deposits']} starts = "
          f"{summary['serve_retry_amplification']:.3f}x "
          f"(provable cap {cap:.1f}x)")
    print(f"  breaker     {summary['breaker_trips']} trips, "
          f"{summary['breaker_fast_fails']} fast fails "
          f"(no downstream load while open)")
    print(f"  brownout    {summary['brownout_transitions']} level changes; "
          f"{summary['batches_flushed']} coalesced update batches, "
          f"{summary['telemetry_cache_hits']} cached telemetry answers, "
          f"{summary['maintenance_deferred']} maintenance ticks deferred")
    print(f"  recovery    {summary['recoveries']} controller recoveries")

    # ------------------------------------------------------------------ #
    # Who got hurt: sheds concentrate on the cheap service classes.
    # ------------------------------------------------------------------ #
    shed_kinds = Counter(s.victim.kind.value for s in report.shed_records)
    if shed_kinds:
        print("\nShed victims by class (telemetry sacrificed before mutations):")
        for kind, n in shed_kinds.most_common():
            print(f"  {kind:16s} {n}")

    # ------------------------------------------------------------------ #
    # Latency + the determinism contract.
    # ------------------------------------------------------------------ #
    print(f"\nAdmitted-request latency: "
          f"p50 {summary['serve_p50_ms']:.1f} ms, "
          f"p99 {summary['serve_p99_ms']:.1f} ms")
    replay_ok = summary["replay_digest"] == summary["state_digest"]
    print(f"Replay check: commit log -> fresh fabric "
          f"{'MATCHES' if replay_ok else 'DIVERGES FROM'} live state "
          f"({summary['state_digest'][:16]}...)")
    print(f"Outcomes digest: {summary['outcomes_digest'][:16]}... "
          f"(same seed reproduces this byte for byte)")


if __name__ == "__main__":
    main()
