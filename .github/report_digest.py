"""Check a saved kmrd report against a pinned digest.

    python3 .github/report_digest.py REPORT SHA256

Exits 0 when the sha256 of the report, taken over
json.dumps(report, sort_keys=True) with its meta removed, is SHA256, and 1
otherwise.
"""

import hashlib
import json
import sys

path, digest = sys.argv[1:]
with open(path, encoding="utf-8") as fh:
    report = json.load(fh)
del report["meta"]
text = json.dumps(report, sort_keys=True).encode()
sys.exit(0 if hashlib.sha256(text).hexdigest() == digest else 1)
