#!/usr/bin/env python3
"""Append a quick-scale wall-clock sample to results/BENCH_trend.json
and guard against regressions.

Usage: bench_trend.py LABEL FIG8_MS FIG9_MS [FIG11_MS]

The trend file is an append-only history of the figure sweeps that
dominate a quick reproduction. Each appended entry names the host it
ran on (`nproc` plus the /proc/cpuinfo model name), because wall times
from different machines do not compare. The *baseline* is the newest
prior entry from the same host that carries a fig8 sample; after
appending, the script exits non-zero if the new fig8 wall time exceeds
the baseline by more than 25% — a per-access performance regression in
the simulation core, which scripts/ci.sh treats as a failure. A host
with no prior fig8 entry gets its first baseline recorded and passes.
Entries written before the host field existed never match. fig9 and
fig11 are recorded but not guarded: under the shared report cache they
mostly replay fig8's units, so their wall time largely measures I/O
(for fig11, plus the two SVA schemes). Entries recorded before fig11
existed simply lack the key.
"""

import json
import os
import sys
from pathlib import Path

GUARD_RATIO = 1.25

def load_doc() -> tuple[Path, dict]:
    path = Path(__file__).resolve().parent.parent / "results" / "BENCH_trend.json"
    doc = json.loads(path.read_text())
    assert doc["experiment"] == "bench-trend", path
    return path, doc

def host_fingerprint() -> str:
    """`nproc` (the CPUs this process may run on) plus the CPU model."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={len(os.sched_getaffinity(0))} {model}"

def main() -> int:
    if len(sys.argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 2
    label, fig8_ms, fig9_ms = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    fig11_ms = int(sys.argv[4]) if len(sys.argv) == 5 else None
    path, doc = load_doc()
    host = host_fingerprint()
    baseline = next(
        (
            e
            for e in reversed(doc["entries"])
            if "fig8_wall_ms" in e and e.get("host") == host
        ),
        None,
    )
    entry = {
        "label": label,
        "host": host,
        "fig8_wall_ms": fig8_ms,
        "fig9_wall_ms": fig9_ms,
    }
    if fig11_ms is not None:
        entry["fig11_wall_ms"] = fig11_ms
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    fig11_note = "" if fig11_ms is None else f", fig11 {fig11_ms} ms"
    sample = f"bench-trend: fig8 {fig8_ms} ms, fig9 {fig9_ms} ms{fig11_note}"
    if baseline is None:
        print(f"{sample} (first baseline for host '{host}')")
        return 0
    limit = baseline["fig8_wall_ms"] * GUARD_RATIO
    print(
        f"{sample} (baseline '{baseline['label']}' on '{host}': "
        f"fig8 {baseline['fig8_wall_ms']} ms, guard {limit:.0f} ms)"
    )
    if fig8_ms > limit:
        print(
            f"bench-trend: FAIL — fig8 wall time regressed more than "
            f"{GUARD_RATIO - 1:.0%} over the baseline",
            file=sys.stderr,
        )
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
