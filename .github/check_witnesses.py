"""Check a saved kmrd report's witnesses against a pin.

    python3 .github/check_witnesses.py REPORT COUNT SHA256

Exits 0 when the report's verdict is FAILED_WITH_WITNESS with COUNT
witnesses whose sha256, taken over json.dumps(witnesses, sort_keys=True),
is SHA256, and 1 otherwise.
"""

import hashlib
import json
import sys

path, count, digest = sys.argv[1:]
with open(path, encoding="utf-8") as fh:
    report = json.load(fh)
text = json.dumps(report["witnesses"], sort_keys=True).encode()
ok = (report["verdict"] == "FAILED_WITH_WITNESS"
      and len(report["witnesses"]) == int(count)
      and hashlib.sha256(text).hexdigest() == digest)
sys.exit(0 if ok else 1)
