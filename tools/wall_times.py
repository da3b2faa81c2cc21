"""Wall time and peak RSS of extham subcommands in fresh processes, this checkout against another.

    python tools/wall_times.py OTHER_CHECKOUT            # 9 runs per command and tree
    python tools/wall_times.py OTHER_CHECKOUT --runs 21

Each run is ``python -m extham.cli ARGV`` in a new interpreter, with PYTHONPATH
set to one tree's src, timed from process start to exit. Its peak RSS is the
child's ``ru_maxrss`` from ``os.wait4``. Linux carries that figure across
``exec`` from the forking process, so no child reads below this tool's own
peak, printed last as the floor; the tool imports no numpy, so a command that
makes no array still reads above it. The two trees take turns, run by run, so
both see the same machine load. Prints one row per command with both medians
and their ratio. Exits 1 if the two trees' stdout or exit code differ on any
run. Uses only the standard library; the integrate runs write their CSV to a
temporary directory.
"""

import argparse
import os
import resource
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
    # the free base, V = 0
    ("verify", "--model", "minkowski", "--alpha", "0", "--beta", "0"),
    ("integrate", "--alpha", "0", "--beta", "0", "--x0", "1", "0", "3.2", "0.5", "--steps", "400",
     "--csv", "t.csv"),
    ("ccm",),
    ("ladder",),
    # the Kbar(4,1) orbit, whose H adds Omega/gamma^2
    ("integrate", "--omega", "0.3", "--x0", "1", "0", "3.2", "0.5", "--steps", "400", "--csv", "t.csv"),
)


def peak_mb(kilobytes):
    """ru_maxrss, which Linux gives in KiB, in MB."""
    return kilobytes * 1024 / 1e6


def run(tree, argv, cwd):
    """(seconds, peak RSS in MB, exit code, stdout bytes) of one fresh process on tree's src."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src")}
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "extham.cli", *argv], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    seconds = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return seconds, peak_mb(usage.ru_maxrss), proc.returncode, out


def at_least_one(text):
    """--runs as an int of at least 1; argparse turns a refusal into a usage error (exit 2)."""
    runs = int(text)
    if runs < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 run, got {runs}")
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", help="the root of another checkout, the first column")
    ap.add_argument("--runs", type=at_least_one, default=9, help="runs per command and tree (at least 1)")
    args = ap.parse_args(argv)
    trees, differ = (args.other, ROOT), []
    print("| command | other | this | this / other | other peak RSS | this peak RSS |\n"
          "|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            times, peaks = ([], []), ([], [])
            for i in range(args.runs):
                reports = {}
                for k in (i % 2, 1 - i % 2):  # alternate which tree goes first
                    seconds, peak, *reports[k] = run(trees[k], command, tmp)
                    times[k].append(seconds)
                    peaks[k].append(peak)
                if reports[0] != reports[1]:
                    differ.append(" ".join(command))
            a, b = (statistics.median(t) * 1e3 for t in times)
            ra, rb = map(statistics.median, peaks)
            print(f"| `{' '.join(command)}` | {a:.1f} ms | {b:.1f} ms | {b / a:.3f} "
                  f"| {ra:.2f} MB | {rb:.2f} MB |")
    floor = peak_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(f"floor: this tool's own peak RSS, {floor:.2f} MB, which no child reads below")
    for command in sorted(set(differ)):
        print(f"stdout or exit code differs: {command}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
