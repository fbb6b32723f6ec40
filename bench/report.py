"""Every workload, untraced and traced, in one table.

    python3 bench/report.py --seed 1 --seconds 18 [--json bench/baseline.json]

Runs ``bench/run.py`` once per (workload, --trace) pair from the current
directory (the root of a checkout) and prints each metric by name, with its
unit, per workload.  Layers a workload does not use read 0 and are left out
of the table.  ``--json`` also writes the results and run details to a file.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    runs = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
            runs[f"{workload} trace={trace}"] = {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}

    failed = False
    for name, r in runs.items():
        result, detail = r["result"], r["detail"]
        failed |= not result["correct"]
        print(f"== {name}: correct={result['correct']} error_rate={detail['error_rate']:.4g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            if m["value"]:
                print(f"   {metric:48s} {m['value']:>14.6g} {m['unit']}")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
