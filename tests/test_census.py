"""The census ratchet: the verdicts of ``tools/census.py``, pinned per group.

``census_counts.json`` holds, for each case group (the first component of
the case id), its SEPARABLE, ENTANGLED and INCONCLUSIVE counts and a
sha256 over the (case id, status) pairs of its decided cases, in census
order.  The test fails when a case raises, when a group's INCONCLUSIVE
count exceeds its pin or when a decided case changes status.  A change
that decides more cases changes the digests too: it copies the counts and
digests that the failure prints into the file.
"""

import hashlib
import importlib.util
import json
from collections import defaultdict
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "census", Path(__file__).resolve().parent.parent / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

PINS = Path(__file__).with_name("census_counts.json")


def read_census():
    """Per group, the status counts and the decided cases' digest of one
    census run, and the cases that raised."""
    groups = defaultdict(lambda: (dict.fromkeys(("separable", "entangled", "inconclusive"), 0),
                                  hashlib.sha256()))
    raised = []
    for cid, rho, n, m in census.cases():
        entry, _ = census.outcome(rho, n, m)
        if "error" in entry:
            raised.append(f"{cid} raised {entry['error']}")
            continue
        counts, digest = groups[cid.split("/")[0]]
        counts[entry["status"]] += 1
        if entry["status"] != "inconclusive":
            digest.update(f"{cid}\t{entry['status']}\n".encode())
    record = {group: {**counts, "decided_sha256": digest.hexdigest()}
              for group, (counts, digest) in groups.items()}
    return record, raised


def test_census_holds_its_pins():
    record, problems = read_census()
    pins = json.loads(PINS.read_text())
    for group in sorted(pins.keys() | record.keys()):
        read, pin = record.get(group), pins.get(group)
        if read is None or pin is None:
            problems.append(f"{group}: read {read}, pinned {pin}")
        elif read["inconclusive"] > pin["inconclusive"]:
            problems.append(f"{group}: {read['inconclusive']} INCONCLUSIVE, "
                            f"pinned {pin['inconclusive']}")
        elif read != pin:
            problems.append(f"{group}: decided cases changed status: read {read}, pinned {pin}")
    assert not problems, ("\n".join(problems) + f"\ncounts and digests read, for {PINS.name}:\n"
                          + json.dumps(record, indent=1))
