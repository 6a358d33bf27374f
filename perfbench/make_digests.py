"""Regenerate digests.json: the SHA-256 of every workload certificate.

    python3 perfbench/make_digests.py

The digests pin the certificates of the commit they were made at, so run
this only when a change to the certificates themselves is intended. A slope
whose certification fails gets no digest; the benchmark then reports it as
unchecked if it ever certifies.
"""

from __future__ import annotations

import json
import sys

from worker import import_slopecert, run_pass
from workloads import DIGESTS_PATH, WORKLOADS, digest_key


def main() -> int:
    slopecert = import_slopecert()
    table = {}
    for workload in WORKLOADS.values():
        digests = table.setdefault(str(workload.gamma_budget), {})
        todo = [s for s in workload.slopes if digest_key(*s) not in digests]
        for rec in run_pass(slopecert.certify_slope, todo, workload.gamma_budget, {})["ops"]:
            if rec["status"] == "failed":
                print(f"{workload.name}: {rec['slope']} failed: {rec['error']}", file=sys.stderr)
            else:
                digests[rec["slope"]] = rec["digest"]
    with DIGESTS_PATH.open("w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
