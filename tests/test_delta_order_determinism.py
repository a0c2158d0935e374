"""Delta-sync row order must not depend on string hashing.

A delta batch lists the URLs a shard touched since the client's version.
Collected through a ``set``, that order followed ``PYTHONHASHSEED`` — the
same posts gave a different ``urls`` order per hash seed, and the order
leaks into every client view built from the batch.  The change log
itself must be hash-free too: vote re-weighing hands the server a set of
keys to mark.  Like ``test_determinism_regression.py``, the check runs
the scenario in subprocesses under different hash seeds (string hashes
are fixed for a whole process), and pins the order itself: each touched
URL once, in the order of its first change after the client's version,
with re-weighed keys logged in sorted order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

# One AS; a first full pull; then a second reporter re-posts two known
# URLs around two new ones, and the first reporter withdraws two of its
# eight vouches (one entry leaves, the other is still vouched by the
# second reporter).  Withdrawing vouches re-weighs the first reporter's
# remaining keys, so they are touched too.
_DELTA = r"""
import json
from repro.core.globaldb import ReportItem, ServerDB
from repro.core.records import BlockType
from tests.reference.sync import sync_for_as

ASN = 7
db = ServerDB(entry_ttl=None)
first, second = db.register(0.0), db.register(0.0)

def item(url):
    return ReportItem(url=url, asn=ASN, stages=(BlockType.DNS_NXDOMAIN,),
                      measured_at=1.0)

db.post_update(first, [item(f"http://site{i}.example/") for i in range(8)],
               now=1.0)
since = db.sync_batch_for_as(ASN, 2.0).version
db.post_update(second, [item("http://site5.example/"),
                        item("http://new1.example/"),
                        item("http://site2.example/"),
                        item("http://new0.example/")], now=3.0)
db.post_dissent(first, "http://site6.example/", ASN, now=4.0)
db.post_dissent(first, "http://site2.example/", ASN, now=4.0)
batch = db.sync_batch_for_as(ASN, 5.0, since_version=since)
rows = sync_for_as(db, ASN, 5.0, since_version=since)
print(json.dumps({
    "batch": [list(batch.urls), list(batch.removed)],
    "rows": [[e.url for e in rows.entries], list(rows.removed)],
}))
"""

_EXPECTED_URLS = [
    "http://site5.example/",
    "http://new1.example/",
    "http://site2.example/",
    "http://new0.example/",
    "http://site0.example/",
    "http://site1.example/",
    "http://site3.example/",
    "http://site4.example/",
    "http://site7.example/",
]
_EXPECTED_REMOVED = ["http://site6.example/"]


def _run_delta(hashseed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _DELTA],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        check=True,
    )
    return json.loads(result.stdout)


class TestDeltaOrderAcrossHashSeeds:
    @pytest.fixture(scope="class")
    def outputs(self):
        return {seed: _run_delta(seed) for seed in ("0", "1")}

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_batch_order_pinned(self, outputs, seed):
        urls, removed = outputs[seed]["batch"]
        assert urls == _EXPECTED_URLS
        assert removed == _EXPECTED_REMOVED

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_row_path_order_pinned(self, outputs, seed):
        urls, removed = outputs[seed]["rows"]
        assert urls == _EXPECTED_URLS
        assert removed == _EXPECTED_REMOVED
