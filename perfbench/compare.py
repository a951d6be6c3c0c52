"""Compare the end-to-end metrics of two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the records run.py writes to .perfbench-out/
(<workload>-seed<n>-trace0.json). For every workload and metric it prints
both medians with their quartile spread, and the change against the bound
in BENCHMARK.json:
  unresolved  the before runs spread wider than the bound, so the runs
              cannot tell a change from noise
  REGRESSION  the after median is worse by more than the bound
  ok          it is not
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """{workload: {metric: [values]}} over the untraced records in `directory`."""
    out = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        for name, metric in record["result"]["metrics"].items():
            out[record["workload"]][name].append(metric["value"])
    return out


def spread(values) -> float:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (q[2] - q[0]) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    before, after = load(argv[0]), load(argv[1])
    regressions = 0
    print(f"{'workload':<16} {'metric':<14} {'before':>11} {'after':>11} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(before) & set(after)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = before[workload].get(name), after[workload].get(name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            if spread(a) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:<16} {name:<14} {ma:>11.5g} {mb:>11.5g} {0.0 - worse:>+8.1%} "
                  f"{spread(a):>7.1%} {metric['bound']:>6.0%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
