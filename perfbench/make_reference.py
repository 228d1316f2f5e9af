"""Write reference_seed0.json, the seed-0 outputs that the checks compare with.

    python3 perfbench/make_reference.py

The committed file holds the numbers of the commit that introduced the
benchmark; rerunning this script replaces them with the current code's.
"""

import json
import sys

import common

common.prepare()

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name in run.WORKLOAD_NAMES:
        out_dir = common.OUT / f"reference-{name}"
        workload = workloads.build(name, 0, out_dir, with_reference=False)
        record = run.run_pass(workload, None)
        if record["problems"]:
            print(f"{name}: invariant violations {record['problems']}", file=sys.stderr)
            return 1
        reference[name] = record["values"]
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
