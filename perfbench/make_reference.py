"""Regenerate reference.json: the suite.json digest of every suite variant.

Run from the repository root after a deliberate change to suite.json bytes:

    python3 perfbench/make_reference.py
"""

import hashlib
import json

import run  # noqa: F401  (puts src/ on sys.path)
from voacert import cli
from workloads import REFERENCE, SUITE_VARIANTS, WORKLOADS


def main():
    suite = WORKLOADS["suite"]
    digests = {}
    for variant in range(len(SUITE_VARIANTS)):
        plan = suite.setup(variant)
        out = plan[0] / "reference"
        cli.run_suite(plan[2], str(out), jobs=1)
        blob = (out / "suite.json").read_bytes()
        digests[str(variant)] = hashlib.sha256(blob).hexdigest()
        suite.cleanup(plan)
        print(variant, digests[str(variant)], flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"suite_json_sha256": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
