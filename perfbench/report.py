"""Run every workload, untraced and traced, and print one table.

    python3 perfbench/report.py --seed 1 --seconds 10

Each run is its own process (perfbench/run.py).  The table has one column
per workload: the six end-to-end metrics with their units, then every
per-layer metric that is non-zero somewhere, trace.overhead_s included.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT_DIR, UNITS, layer_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_workload(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("error: %s failed:\n%s" % (" ".join(cmd), proc.stderr))
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (name, seed, trace))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)

    names = list(WORKLOADS)
    plain = {n: run_workload(n, args.seed, args.seconds, 0) for n in names}
    traced = {n: run_workload(n, args.seed, args.seconds, 1) for n in names}

    def cell(result, metric):
        value = result["metrics"].get(metric)
        return "n/a" if value is None else "%.4g" % value

    header = "%-38s %-6s" % ("metric", "unit") + "".join(
        " %17s" % n for n in names)
    print(header)
    for metric, unit in UNITS.items():
        print("%-38s %-6s" % (metric, unit)
              + "".join(" %17s" % cell(plain[n], metric) for n in names))
    print("%-38s %-6s" % ("samples", "count") + "".join(
        " %17d" % len(plain[n]["samples_s"]) for n in names))
    print("%-38s %-6s" % ("correct", "") + "".join(
        " %17s" % (not plain[n]["problems"] and not traced[n]["problems"])
        for n in names))
    layer = sorted(k for k in traced[names[0]]["metrics"] if k not in UNITS)
    for metric in layer:
        if any(traced[n]["metrics"][metric] for n in names):
            print("%-38s %-6s" % (metric, layer_unit(metric))
                  + "".join(" %17s" % cell(traced[n], metric)
                            for n in names))
    print("provenance %s" % json.dumps(plain[names[0]]["provenance"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
