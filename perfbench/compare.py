"""Compare the stdout digests of two benchmark output files.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Both files are written by run.py (``perfbench/out/...``) for the same
workload and seed, typically on a parent commit and on a change. Each run
holds every operation of the seed's input set once, plus timed repeats
that the run itself checks against the first; only the first runs are
compared here, matched by case index and position. Exits 1 when any matched operation printed different output.
"""

from __future__ import annotations

import json
import sys


def _ops(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    record = report.get("measure") or report["traced"]
    return {((op["case"], op["label"]), op["position"]): op
            for op in record["ops"] if not op["repeat"]}


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    before, after = (_ops(path) for path in argv)
    common = sorted(set(before) & set(after))
    changed = [key for key in common
               if before[key]["digest"] != after[key]["digest"]]
    for (case, slot) in changed:
        op = after[(case, slot)]
        what = " ".join(op["argv"][:1]) if op["kind"] == "cli" else "library"
        print(f"changed: case {case[0]} {case[1]} op {slot} ({what})")
    print(f"{len(common)} operations compared, {len(changed)} changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
