"""Wall time of extham subcommands in fresh processes, this checkout against another.

    python tools/wall_times.py OTHER_CHECKOUT            # 9 runs per command and tree
    python tools/wall_times.py OTHER_CHECKOUT --runs 21

Each run is ``python -m extham.cli ARGV`` in a new interpreter, with PYTHONPATH
set to one tree's src, timed from process start to exit. The two trees take
turns, run by run, so both see the same machine load. Prints one row per
command with both medians and their ratio. Exits 1 if the two trees' stdout
or exit code differ on any run. Uses only the standard library; the
integrate run writes its CSV to a temporary directory.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (
    ("catalog",),
    ("gamma-table",),
    ("--help",),
    ("verify", "--model", "nowhere"),  # a usage error: exit 2
    ("verify", "--model", "minkowski", "--k", "1"),
    ("verify", "--model", "sphere", "--k", "40"),
    ("integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "400", "--csv", "t.csv"),
)


def run(tree, argv, cwd):
    """(seconds, exit code, stdout bytes) of one fresh process on tree's src."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src")}
    t = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "extham.cli", *argv], env=env, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t, done.returncode, done.stdout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", help="the root of another checkout, the first column")
    ap.add_argument("--runs", type=int, default=9, help="runs per command and tree")
    args = ap.parse_args(argv)
    trees, differ = (args.other, ROOT), []
    print("| command | other | this | this / other |\n|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            times = ([], [])
            for i in range(args.runs):
                reports = {}
                for k in (i % 2, 1 - i % 2):  # alternate which tree goes first
                    seconds, *reports[k] = run(trees[k], command, tmp)
                    times[k].append(seconds)
                if reports[0] != reports[1]:
                    differ.append(" ".join(command))
            a, b = (statistics.median(t) * 1e3 for t in times)
            print(f"| `{' '.join(command)}` | {a:.1f} ms | {b:.1f} ms | {b / a:.3f} |")
    for command in sorted(set(differ)):
        print(f"stdout or exit code differs: {command}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
