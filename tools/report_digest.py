"""One SHA-256 over the reports of a fixed list of extham commands.

Runs 94 command lines in one process and hashes, in order, each argv, its
exit code, its stdout and the CSV it wrote (if any). Two trees whose reports
are byte for byte the same print the same digest:

    python tools/report_digest.py                      # this checkout's src
    python tools/report_digest.py --src OTHER/src      # another checkout
    python tools/report_digest.py -v                   # one line per command too

It exits 1 if the extham it imports is not the one under --src.

The list is the verify, ccm and ladder sweep at seeds 1, 2, 3 and 7; verify
on the Minkowski wedge at k = 1/3, 9/2, 19/2 and 13, and on its free base
(alpha = beta = 0) at seeds 1 and 7; gamma-table as text and JSON; catalog;
four pseudo-polar orbits and one on the free base; one null-chart orbit that
leaves the wedge; three orbits that end otherwise: criterion 08's, which stops
converging, one that crosses --u-min, and a time-reversed one that stops
converging; two starts outside H's domain, at the gamma pole and off the
wedge, which are refused; two command lines refused at parse time, a
zero step and a negative seed; and, last, an orbit of the free flow, verify
and integrate at a --k that takes --no-integral, and verify at a --k whose
integral passes the degree cap (exit 2). Uses only the standard library and
extham.
"""

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

SWEEP_SEEDS = (1, 2, 3, 7)
VERIFY_CASES = [
    ("minkowski", "1", 0.0),
    ("minkowski", "1/2", 0.0),
    ("minkowski", "2", 0.0),
    ("minkowski", "1", 0.3),
    ("minkowski", "1/2", 0.3),
    ("sphere", "1", 0.0),
    ("pseudosphere", "1", 0.0),
    ("de-sitter", "1", 0.0),
    ("anti-de-sitter", "1", 0.0),
    ("ttw-flat", "1", 0.0),
    ("remark-h1", "1", 0.0),
    ("remark-h2", "1", 0.0),
    ("minkowski", "5/3", 0.0),
]
HIGH_DEGREE_K = ("1/3", "9/2", "19/2", "13")
FREE_BASE = ["--alpha", "0", "--beta", "0"]
FREE_BASE_SEEDS = (1, 7)
ORBITS = [("1", 0.0), ("1/2", 0.0), ("2", 0.0), ("1", 0.3)]
# integrate flags of orbits that stop early: no-convergence at step 356,
# domain-exit at step 147 and, time-reversed, no-convergence at step 160
EARLY_STOPS = [
    ["--k", "1", "--x0", "1.0", "0.0", "0.2", "0.5", "--steps", "10000"],
    ["--x0", "1.0", "0.0", "-3.2", "0.5", "--u-min", "0.3", "--steps", "2000"],
    ["--x0", "1.0", "0.0", "3.2", "0.5", "--h=-1e-3", "--steps", "3000"],
]
# integrate flags of starts outside H's domain: at the gamma pole and off the wedge
REFUSED_STARTS = [
    ["--x0", "0", "0", "3.2", "0.5"],
    ["--chart", "null", "--x0", "1", "0", "3.2", "0.5"],
]
# command lines refused at parse time: a zero step and a seed outside Philox's key range
REFUSED_AT_PARSE = [
    ["integrate", "--x0", "1.0", "0.0", "3.2", "0.5", "--h", "0"],
    ["verify", "--model", "minkowski", "--seed", "-1"],
]

# commands that reach code the lists above do not: the free flow, the float --k of
# --no-integral in verify and in integrate, and the degree cap (K(30,1) at k = 14)
OTHER_PATHS = [
    (["integrate", "--model", "free", "--x0", "1", "0", "3.2", "0.5", "--steps", "200"],
     "trajectory.csv"),
    (["verify", "--model", "minkowski", "--k", "0.5", "--no-integral", "--seed", "1"], None),
    (["integrate", "--chart", "null", "--k", "0.5", "--no-integral",
      "--x0", "1", "0.5", "0.2", "0.5", "--steps", "200"], "trajectory.csv"),
    (["verify", "--model", "minkowski", "--k", "14"], None),
]


def verify_argv(model, k, omega, seed):
    return ["verify", "--model", model, "--k", k, "--omega", repr(omega),
            "--alpha", "1.0", "--beta", "2.0", "--eta", "2.0", "--psi0", "0.2",
            "--m", "2", "--n", "1", "--d", "2.0", "--points", "50", "--seed", str(seed),
            "--tol", "1e-09"]


def argvs():
    """(argv, csv file name or None) for each command, in hashing order."""
    out = []
    for seed in SWEEP_SEEDS:
        out += [(verify_argv(*case, seed), None) for case in VERIFY_CASES]
        for m, n in ((2, 1), (4, 3)):
            out.append((["ccm", "--m", str(m), "--n", str(n), "--E", "0.4", "--eta", "2.0",
                         "--alpha", "0.7", "--beta", "1.3", "--points", "50",
                         "--seed", str(seed), "--tol", "1e-09"], None))
        for branch in ("hyperbolic", "trig"):
            out.append((["ladder", "--branch", branch, "--alpha", "0.7", "--beta", "1.3",
                         "--eta", "2.0", "--psi0", "0.2", "--points", "50",
                         "--seed", str(seed), "--tol", "1e-10"], None))
    out += [(["verify", "--model", "minkowski", "--k", k, "--seed", "7"], None)
            for k in HIGH_DEGREE_K]
    out += [(["verify", "--model", "minkowski"] + FREE_BASE + ["--seed", str(seed)], None)
            for seed in FREE_BASE_SEEDS]
    out += [(["gamma-table"], None), (["gamma-table", "--json"], None), (["catalog"], None)]
    for i, (k, omega) in enumerate(ORBITS):
        name = f"orbit{i}.csv"
        out.append((["integrate", "--model", "minkowski", "--k", k, "--omega", repr(omega),
                     "--alpha", "1.0", "--beta", "2.0", "--chart", "pseudo-polar",
                     "--x0", "1.0", "0.0", "3.2", "0.5", "--h", "0.001", "--steps", "200",
                     "--u-min", "0.05", "--csv", name], name))
    out.append((["integrate"] + FREE_BASE + ["--x0", "1", "0", "3.2", "0.5", "--steps", "400",
                                             "--csv", "free.csv"], "free.csv"))
    out.append((["integrate", "--chart", "null", "--omega", "0.3",
                 "--x0", "0.7", "0.7", "2.97", "1.56", "--csv", "null.csv"], "null.csv"))
    for i, flags in enumerate(EARLY_STOPS + REFUSED_STARTS):
        name = f"stop{i}.csv"
        out.append((["integrate"] + flags + ["--csv", name], name))
    out += [(argv, None) for argv in REFUSED_AT_PARSE]
    return out + OTHER_PATHS


def digest(verbose=False):
    """The hex digest over every command, run with the extham that imports first."""
    from extham import cli

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # CSV paths in the reports stay relative, so digests compare across trees
        try:
            for argv, csv_name in argvs():
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                one = hashlib.sha256()
                for part in (" ".join(argv), str(code), out.getvalue()):
                    one.update(part.encode() + b"\0")
                if csv_name is not None:
                    with open(csv_name, "rb") as fh:
                        one.update(fh.read())
                total.update(one.digest())
                if verbose:
                    print(f"{one.hexdigest()[:16]} exit {code} {' '.join(argv)}")
        finally:
            os.chdir(cwd)
    return total.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the extham package (default: this checkout's src)")
    ap.add_argument("-v", "--verbose", action="store_true", help="also print each command's digest")
    args = ap.parse_args()
    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import extham

    # an installed extham, or one on PYTHONPATH, imports first where --src holds none
    origin = os.path.realpath(extham.__file__)
    if not origin.startswith(src + os.sep):
        sys.exit(f"error: extham imported from {origin}, not from --src {src}")
    print(digest(args.verbose))


if __name__ == "__main__":
    main()
