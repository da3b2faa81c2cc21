"""numpy loads at the first array, not at ``import extham``.

Each case runs in two fresh interpreters: one as a user would run it, which
must load numpy's ``_core`` only where the case makes or takes an array, and
one that imports numpy before extham, whose stdout and exit code must be the
same bytes. A last test holds numpy's ``__init__`` open in one thread while a
second thread reads numpy, with and without the lock of that first read.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
# prints, at exit, whether numpy's __init__ ran
PROBE = """\
import atexit, sys
atexit.register(lambda: print("numpy._core" in sys.modules, file=sys.stderr))
{prelude}
{code}
"""
MODEL = """\
from fractions import Fraction
from extham import PhasePoint, make_minkowski_hamiltonian, poisson_bracket, bracket_scale
model = make_minkowski_hamiltonian(Fraction(1), alpha=1.0, beta=2.0)
H, K, x = model.H, model.integral("K(4,1)"), PhasePoint((0.9, 1.4), (0.7, -1.1))
"""


def _fresh(*probes):
    """(exit code, stdout, stderr) of each (code, prelude) probe, run at once in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    procs = [subprocess.Popen([sys.executable, "-c", PROBE.format(prelude=prelude, code=code)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for code, prelude in probes]
    try:
        outs = [proc.communicate(timeout=60) for proc in procs]
        return [(proc.returncode, *out) for proc, out in zip(procs, outs)]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def _cli(*argv):
    return f"from extham.cli import main\nsys.exit(main({list(argv)!r}))"


@pytest.mark.parametrize("code, code_exit, loads", [
    ("import extham", 0, False),
    (_cli("catalog"), 0, False),
    (_cli("gamma-table"), 0, False),
    (_cli("gamma-table", "--json"), 0, False),
    (_cli("--help"), 0, False),
    (_cli("verify", "--help"), 0, False),
    (_cli("verify", "--model", "nowhere"), 2, False),
    (MODEL + "print(repr(H(x)), repr(K(x)), repr(poisson_bracket(H, K, x)))", 0, False),
    ("from extham import GammaProfile, gamma\ntry:\n    gamma(GammaProfile.from_c_kappa(1.0, 1.0), 0.0)\n"
     "except ZeroDivisionError as exc:\n    print(exc)", 0, False),
    (MODEL + "print(repr(bracket_scale(H, K, x)))", 0, False),
    # the third float evaluation of each integral runs the program the second compiled
    (MODEL + "R, y = model.extension.k_recursive(), PhasePoint((1.1, 0.8), (0.5, 0.3))\n"
     "print([repr(f(z)) for f, z in [(K, x), (R, y)] for _ in range(3)])\n"
     "print([key for key, kept in model.extension._programs.items() if kept])", 0, False),
    # controls: an array path loads numpy, and gradient returns a numpy vector at a float point
    (_cli("verify", "--model", "minkowski", "--points", "5"), 0, True),
    (MODEL + "from extham.phase import gradient\nprint(repr(gradient(H, x)))", 0, True),
], ids=["import", "catalog", "gamma-table", "gamma-table-json", "help", "verify-help",
        "usage-error", "float-H-K-bracket", "float-gamma-pole", "float-bracket-scale", "float-programs",
        "control-verify", "control-gradient"])
def test_only_an_array_path_loads_numpy(code, code_exit, loads):
    (code_lazy, out, err), (code_eager, eager_out, _) = _fresh((code, ""), (code, "import numpy"))
    assert (code_lazy, err.splitlines()[-1]) == (code_exit, str(loads)), err
    assert (out, code_lazy) == (eager_out, code_eager)


# numpy's __init__ imports numpy.version early on: the finder holds it there
# until the second thread has read numpy, which must wait for the whole module
THREADS = """\
import threading, time
np = sys.modules["numpy"]
loading = threading.Event()


class Hold:
    def find_spec(self, name, path, target=None):
        if name == "numpy.version":
            loading.set()
            time.sleep(0.2)


sys.meta_path.insert(0, Hold())
out = {}


def read(wait):
    if wait:
        loading.wait(10)
    try:
        out[wait] = repr(np.float_power(np.arange(3.0), 2))
    except Exception as exc:
        out[wait] = type(exc).__name__


threads = [threading.Thread(target=read, args=(wait,)) for wait in (False, True)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
print([out[False], out[True]])
"""


@pytest.mark.parametrize("prelude, second", [
    ("import extham", "array([0., 1., 4.])"),
    # control: without the lock the second thread reads a numpy that is half built
    ("import contextlib, extham\nextham._FIRST_READ = contextlib.nullcontext()", "AttributeError"),
], ids=["extham", "control-no-lock"])
def test_a_second_thread_waits_for_the_first_load(prelude, second):
    [(_, out, err)] = _fresh((THREADS, prelude))
    assert out.splitlines() == [repr(["array([0., 1., 4.])", second])], err
