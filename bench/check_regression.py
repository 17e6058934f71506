#!/usr/bin/env python3
"""Bench-regression gate for the sweep harnesses.

Compares a freshly produced sweep JSON (BENCH_shard.json,
BENCH_upcall.json, BENCH_itr.json, BENCH_autotune.json) against its
committed baseline and fails (exit 1)
when any sweep point's amortized cycles/packet regresses by more than
the tolerance (default 10%), or when a sweep point disappears. Sweep
points present in the current run but absent from the baseline are
reported as warnings — new sweeps should land with a refreshed baseline
so they are gated from day one. Improvements pass; a clearly better run
should be accompanied by a refreshed baseline (regenerate with e.g.
`TWIN_BENCH_PACKETS=64 cargo bench -p twin-bench --bench eval -- shard &&
cp BENCH_shard.json bench/baseline.json`).

Entries are keyed by their identity fields (config, nics, burst,
upcalls, itr, mode, zerocopy, policy, duty — whichever are present) and
compared on every `*_cycles_per_packet` field both sides share.

Usage: check_regression.py BASELINE CURRENT [--tolerance 0.10]
       check_regression.py --self-test
"""

import argparse
import json
import sys

# Fields that identify a sweep point; everything else is a measurement.
# "profile"/"phase" key the autotune sweep's shifting-load points (each
# load-profile phase is its own gated point); "zerocopy" splits the
# zero-copy sweep's on/off modes into separately gated points;
# "offered"/"guest" key the livelock sweep's offered-load multiples and
# per-guest breakdowns; "policy"/"duty" key the scheduler-affinity
# sweep's shard-policy × run-duty-cycle grid.
ID_FIELDS = ("config", "profile", "phase", "nics", "burst", "upcalls",
             "itr", "mode", "zerocopy", "offered", "guest", "policy",
             "duty")


def key_of(entry):
    return tuple((f, entry[f]) for f in ID_FIELDS if f in entry)


def label_of(key):
    return " ".join(f"{f}={v}" for f, v in key)


def metrics_of(entry):
    return sorted(f for f in entry if f.endswith("_cycles_per_packet"))


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {key_of(e): e for e in data["entries"]}, data.get("packets")


def self_test():
    """Exercises the gate against synthetic baselines: well-formed input
    must load and key correctly, malformed input (missing "entries",
    non-numeric metrics) must fail loudly instead of passing vacuously."""
    import io
    import contextlib

    failures = []

    def check(name, ok):
        print(f"  {'ok  ' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    good = {"packets": 64, "entries": [
        {"config": "a", "nics": 1, "burst": 8, "zerocopy": True,
         "rx_cycles_per_packet": 100.0},
        {"config": "a", "nics": 1, "burst": 8, "zerocopy": False,
         "rx_cycles_per_packet": 200.0},
    ]}
    keyed = {key_of(e): e for e in good["entries"]}
    check("zerocopy on/off key distinct sweep points", len(keyed) == 2)
    check("identity fields ordered and present",
          key_of(good["entries"][0]) ==
          (("config", "a"), ("nics", 1), ("burst", 8), ("zerocopy", True)))
    check("metrics are the *_cycles_per_packet fields",
          metrics_of(good["entries"][0]) == ["rx_cycles_per_packet"])

    # A regressed current run must fail the gate.
    regressed = {"packets": 64, "entries": [
        dict(good["entries"][0], rx_cycles_per_packet=150.0),
        good["entries"][1],
    ]}
    check("regression beyond tolerance fails",
          gate(keyed, {key_of(e): e for e in regressed["entries"]},
               0.10, quiet=True) == 1)
    check("identical run passes", gate(keyed, dict(keyed), 0.10, quiet=True) == 0)

    # Livelock identity: the offered-load multiple and the guest axis
    # key distinct gated points.
    live = [
        {"config": "a", "profile": "flood_one_guest", "mode": "controlled",
         "offered": 1.0, "guest": "all", "rx_cycles_per_packet": 100.0},
        {"config": "a", "profile": "flood_one_guest", "mode": "controlled",
         "offered": 10.0, "guest": "all", "rx_cycles_per_packet": 110.0},
    ]
    check("offered-load multiples key distinct livelock points",
          len({key_of(e) for e in live}) == 2)
    check("guest is an identity field", ("guest", "all") in key_of(live[0]))

    # Stale-baseline detection: a baseline keyed by identity fields no
    # current entry emits must warn (the points also fail as missing —
    # the warning says *why*).
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = gate({key_of(e): e for e in live},
                  {key_of(e): e for e in good["entries"]}, 0.10)
    check("baseline with vanished identity fields fails the gate", rc == 1)
    check("stale baseline identity fields warn",
          "stale baseline" in out.getvalue())

    # Malformed baselines must raise, not silently gate nothing.
    for name, blob in [
        ("baseline without \"entries\" raises", '{"packets": 64}'),
        ("non-numeric metric raises",
         '{"entries": [{"config": "a", "rx_cycles_per_packet": "fast"}]}'),
    ]:
        try:
            entries, _ = (lambda d: ({key_of(e): e for e in d["entries"]},
                                     d.get("packets")))(json.loads(blob))
            with contextlib.redirect_stdout(io.StringIO()):
                gate(entries, entries, 0.10, quiet=True)
            check(name, False)
        except (KeyError, TypeError):
            check(name, True)

    if failures:
        print(f"\nself-test FAILED ({len(failures)} issue(s))")
        return 1
    print("\nself-test passed")
    return 0


def gate(base, cur, tolerance, quiet=False):
    """Compares keyed baseline/current entries; returns the exit code."""
    failures = []
    for key, b in sorted(base.items()):
        c = cur.get(key)
        label = label_of(key)
        if c is None:
            failures.append(f"{label}: sweep point missing from current run")
            continue
        for field in metrics_of(b):
            if field not in c:
                failures.append(f"{label}: field {field} missing from current run")
                continue
            old, new = b[field], c[field]
            limit = old * (1.0 + tolerance)
            delta = (new - old) / old if old else 0.0
            status = "FAIL" if new > limit else "ok"
            if not quiet:
                print(f"  {status}  {label} {field}: {old:.1f} -> {new:.1f} ({delta:+.1%})")
            if new > limit:
                failures.append(
                    f"{label}: {field} regressed {delta:+.1%} "
                    f"({old:.1f} -> {new:.1f}, limit {tolerance:.0%})")

    # Unknown points are not gated — surface them so the baseline gets
    # refreshed instead of silently leaving new sweeps unprotected.
    unknown = [k for k in cur if k not in base]
    if not quiet:
        for k in sorted(unknown):
            print(f"  WARN  {label_of(k)}: not in baseline (ungated; refresh the baseline)")

    # Stale-baseline detection: an identity *field* that appears in the
    # baseline's keys but in no current entry means the sweep stopped
    # emitting it (renamed or dropped) — every one of those baseline
    # points would "go missing" for a structural reason, not a perf one.
    base_fields = {f for key in base for f, _ in key}
    cur_fields = {f for key in cur for f, _ in key}
    stale = sorted(base_fields - cur_fields)
    if stale and not quiet:
        print(f"  WARN  baseline identity field(s) {', '.join(stale)} absent "
              "from every current entry — stale baseline? regenerate it")

    if failures:
        if not quiet:
            print(f"\nbench regression gate FAILED ({len(failures)} issue(s)):")
            for f in failures:
                print(f"  - {f}")
        return 1
    if not quiet:
        print(f"\nbench regression gate passed ({len(base)} sweep points, "
              f"{len(unknown)} ungated warning(s), tolerance {tolerance:.0%})")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional cycles/packet regression (default 0.10)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the gate's own sanity checks and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        ap.error("baseline and current are required unless --self-test")

    base, base_pkts = load(args.baseline)
    cur, cur_pkts = load(args.current)
    if base_pkts != cur_pkts:
        print(f"note: packet counts differ (baseline {base_pkts}, current {cur_pkts}); "
              "comparison is still amortized per packet")
    return gate(base, cur, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
