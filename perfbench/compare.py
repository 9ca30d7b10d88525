"""Compare two benchmark result files and flag environment mismatches.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is one perfbench/out/<workload>-seed<n>-trace<t>.json.  A
comparison across rational backends or CPU counts measures the machine, not
the change, so it is flagged and the exit code is 1.
"""

import json
import sys

MUST_MATCH = ("backend", "nproc", "cpus_usable")
NOTE_IF_DIFFERENT = ("python", "numpy", "commit", "src_lines")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = (load(path) for path in argv)
    code = 0
    if base["workload"] != new["workload"]:
        print(f"FLAG workload differs: {base['workload']} vs "
              f"{new['workload']}")
        code = 1
    for key in MUST_MATCH + NOTE_IF_DIFFERENT:
        a, b = base["env"].get(key), new["env"].get(key)
        if a != b:
            flag = "FLAG not comparable" if key in MUST_MATCH else "note"
            print(f"{flag}: {key} {a} vs {b}")
            code = code or int(key in MUST_MATCH)
    for name, metric in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = metric["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:.3f}x" if a else "n/a"
        print(f"{name:45s} {a:12.6g} -> {b:12.6g} {metric['unit']:8s} "
              f"{ratio}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
