#!/usr/bin/env python3
"""Append a compacted snapshot of BENCH_performance.json to the
committed bench trajectory log (docs/bench/trajectory.jsonl).

The full bench record is gitignored (it is regenerated by every
scripts/check.sh run and carries machine-scale timings); this keeps a
one-line-per-run summary of its deterministic counters and ratios under
version control so their history is reviewable in PRs.

Usage: bench_snapshot.py BENCH_performance.json docs/bench/trajectory.jsonl
"""

import datetime
import json
import os
import sys

# Scalar headline fields copied verbatim when present. Only
# deterministic counters and the ratios derived from them are kept: the
# record times an in-memory scale-0.01 corpus in a few milliseconds, so
# its wall and symexec seconds (and ratios of them, such as the
# provenance overhead) were run-to-run noise. Timings are judged from
# ridbench medians instead (ridbench/README.md).
FIELDS = [
    "workload",
    "cache_hit_rate",
    "resume_hit_rate",
    "resume_store_bytes",
    "entries_instantiated_off",
    "entries_instantiated_on",
    "instantiation_reduction",
    "inst_cache_hit_rate",
    "summary_entries_compacted",
    "triage_hp_units_lowered",
    "cross_pass_cache_hits",
    "cross_pass_cache_hit_rate",
]

# Dimensionless triage-gate headline fields (BENCH_truth.json "triage"
# object) — tier counts and the two gate quantities.
TRIAGE_FIELDS = [
    "reports",
    "confirmed",
    "unverified",
    "low_confidence",
    "refuted",
    "injected_reports",
    "injected_below_unverified",
    "fp_inducer_reports",
    "fp_inducer_demoted",
    "fp_demotion_rate",
    "gate",
]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src, dst = sys.argv[1], sys.argv[2]
    with open(src) as f:
        record = json.load(f)

    snap = {"date": datetime.date.today().isoformat()}
    for field in FIELDS:
        if field in record:
            snap[field] = record[field]

    # BENCH_truth.json (the injected-truth scoring harness): keep the
    # dimensionless per-run scores and scale markers; per-domain detail
    # and machine-scale timings stay in the full (gitignored) record.
    for run in ("smoke", "scale_run"):
        if run not in record:
            continue
        r = record[run]
        snap[f"{run}_functions"] = r.get("functions")
        if "injected" in r:
            snap[f"{run}_injected"] = r["injected"].get("total")
        for tool in ("rid", "cpychecker"):
            if tool in r:
                snap[f"{run}_{tool}_precision"] = r[tool].get("precision")
                snap[f"{run}_{tool}_recall"] = r[tool].get("recall")
        snap[f"{run}_dominates_baseline"] = r.get("dominates_baseline")

    # BENCH_truth.json triage-gate object: tier counts and the demotion
    # gate, so the refutation pass's discrimination history is reviewable.
    if "triage" in record:
        for field in TRIAGE_FIELDS:
            if field in record["triage"]:
                snap[f"triage_{field}"] = record["triage"][field]

    os.makedirs(os.path.dirname(dst), exist_ok=True)
    with open(dst, "a") as f:
        f.write(json.dumps(snap, sort_keys=True) + "\n")
    print(f"bench_snapshot: appended to {dst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
