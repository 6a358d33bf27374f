"""End-to-end certificates.

One call per slope: choose parameters, build the cable braid, verify every
matrix and polynomial identity, and record why the two knot polynomials
differ. Small cables get the direct route (compute the cable polynomial,
check it is not a unit); large ones rest on the genus of the positive
braid. The same pipeline backs the command line:

    slopecert certify --slope 3/2 --json certificate.json
    slopecert batch --slopes slopes.txt
"""

import json

from slopecert import batch, certify_slope

print("single slope, with the oracle cross-check enabled:")
cert = certify_slope(2, 1, verify_oracle=True)
print(" ", cert.summary())
assert cert.diff_nonzero_reason == "direct-gamma-non-unit"
assert "reason: direct-gamma-non-unit" in cert.summary()
print("  certificate JSON is deterministic; a fragment:")
obj = cert.to_obj()
fragment = {k: obj[k] for k in ("slope", "params", "braid", "genus", "diff_nonzero_reason")}
print(" ", json.dumps(fragment, sort_keys=True))

print()
print("a batch, including one slope outside the working range:")
report = batch(["3/1", "5/2", "1/1", "3/2"])
for line in report.summary_lines():
    print(" ", line)
print("  exit status would be", 0 if report.all_ok else 1)
assert [e.slope for e in report.entries if not e.ok] == ["1/1"]
assert "outside the working range" in report.entries[2].error
