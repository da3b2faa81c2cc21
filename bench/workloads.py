"""The benchmark's workloads: sweep, oracle and flow.

A workload is a fixed list of operations whose inputs come from the seed.
One round runs every operation once; a run repeats whole rounds, so every
run does the same mix of work. ``Op.run`` is the timed call into the
package; ``Op.check`` checks its output afterwards, untimed, and returns
False when the operation failed (a verdict of "not verified").
"""

import io
import json
import os
import random
import shutil
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from extham import catalog, cli
from extham.extension import Extension, ExtensionSpec, bracket_scale
from extham.phase import PhasePoint, poisson_bracket
from extham.tagged_trig import GammaProfile

import checks

# trace files, results and the flow workload's temporary CSVs
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Op:
    name: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], bool]


def call_cli(argv):
    """extham.cli.main in-process: (exit code, the JSON report)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def sub_seed(seed, index):
    """A distinct, reproducible seed for operation index of a run."""
    return seed * 1000 + index


class Workload:
    name = None
    # seconds of timed work one round takes on the reference machine
    nominal_round_s = None

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.ops = self.build_ops()

    def build_ops(self):
        raise NotImplementedError

    def warm_up(self):
        """Run each kind of call once on small inputs, untimed."""

    def round_check(self):
        """Checks across the operations of one round."""

    def final_check(self):
        """Checks made once per run, outside the timed rounds."""

    def close(self):
        pass


# -- sweep ---------------------------------------------------------------------

SWEEP_POINTS = 50
SWEEP_TOL = 1e-9
PARAMS = {"alpha": 1.0, "beta": 2.0, "eta": 2.0, "psi0": 0.2, "m": 2, "n": 1, "d": 2.0}
# (model, k, Omega)
VERIFY_CASES = [
    ("minkowski", "1", 0.0),
    ("minkowski", "1/2", 0.0),
    ("minkowski", "2", 0.0),
    ("minkowski", "1", 0.3),    # Kbar(4,1): even m
    ("minkowski", "1/2", 0.3),  # Kbar(6,2): odd m, doubled
    ("sphere", "1", 0.0),
    ("pseudosphere", "1", 0.0),
    ("de-sitter", "1", 0.0),
    ("anti-de-sitter", "1", 0.0),
    ("ttw-flat", "1", 0.0),
    ("remark-h1", "1", 0.0),
    ("remark-h2", "1", 0.0),
]
# K(16,3), momentum degree 21: pass=false on every seed (max_rel_bracket
# ~7e-7 against 1e-9), a false negative on a true integral. Kept with
# inputs that do not depend on the seed, and counted as failed.
KNOWN_FAILURE = ("minkowski", "5/3", 0.0)
KNOWN_FAILURE_SEED = 7
CCM_CASES = [(2, 1), (4, 3)]
LADDER_BRANCHES = ["hyperbolic", "trig"]
FD_POINTS = 3


def verify_argv(model, k, omega, seed, points=SWEEP_POINTS):
    p = PARAMS
    return ["verify", "--model", model, "--k", k, "--omega", repr(omega),
            "--alpha", repr(p["alpha"]), "--beta", repr(p["beta"]), "--eta", repr(p["eta"]),
            "--psi0", repr(p["psi0"]), "--m", str(p["m"]), "--n", str(p["n"]),
            "--d", repr(p["d"]), "--points", str(points), "--seed", str(seed),
            "--tol", repr(SWEEP_TOL)]


def ccm_argv(m, n, seed, points=SWEEP_POINTS):
    return ["ccm", "--m", str(m), "--n", str(n), "--E", "0.4", "--eta", "2.0",
            "--alpha", "0.7", "--beta", "1.3", "--points", str(points), "--seed", str(seed),
            "--tol", repr(SWEEP_TOL)]


def ladder_argv(branch, seed, points=SWEEP_POINTS):
    return ["ladder", "--branch", branch, "--alpha", "0.7", "--beta", "1.3", "--eta", "2.0",
            "--psi0", "0.2", "--points", str(points), "--seed", str(seed), "--tol", "1e-10"]


def catalog_model(model, k, omega):
    """The model verify builds for these flags, built through the catalog API."""
    p = PARAMS
    if model == "minkowski":
        return catalog.make_minkowski_hamiltonian(Fraction(k), p["alpha"], p["beta"], omega)
    if model in ("sphere", "pseudosphere"):
        base = catalog.trig_base(1.0, p["psi0"], p["alpha"], p["beta"], p["eta"])
    elif model in ("de-sitter", "anti-de-sitter"):
        base = catalog.exp_base(p["alpha"], p["beta"], p["eta"])
    elif model == "ttw-flat":
        base = catalog.trig_base(1.0, p["psi0"], p["alpha"], p["beta"], p["eta"])
        return catalog.make_flat_ttw_hamiltonian(base, p["m"], p["n"], omega)
    else:
        h1, h2 = catalog.make_remark_pair(p["d"], p["d"])
        return h1 if model == "remark-h1" else h2
    kappa = 1 if model in ("sphere", "de-sitter") else -1
    return catalog.make_curved_hamiltonian(base, Fraction(k), kappa, omega, model_id=model)


class Sweep(Workload):
    """The user's verify path: extham.cli.main over the model catalog."""

    name = "sweep"
    nominal_round_s = 1.5

    def build_ops(self):
        ops = []
        cases = VERIFY_CASES + [KNOWN_FAILURE]
        for i, (model, k, omega) in enumerate(cases):
            if (model, k, omega) == KNOWN_FAILURE:
                argv = verify_argv(model, k, omega, KNOWN_FAILURE_SEED)
            else:
                argv = verify_argv(model, k, omega, sub_seed(self.seed, i))
            labels = checks.expected_integrals(model, k, omega, PARAMS["m"], PARAMS["n"])
            ops.append(Op(f"verify {model} k={k} Omega={omega}", SWEEP_POINTS,
                          _cli_runner(argv),
                          lambda res, labels=labels: checks.check_verify_report(*res, labels)))
        base = len(cases)
        for j, (m, n) in enumerate(CCM_CASES):
            ops.append(Op(f"ccm m={m} n={n}", SWEEP_POINTS,
                          _cli_runner(ccm_argv(m, n, sub_seed(self.seed, base + j))),
                          lambda res: checks.check_ccm_report(*res)))
        base += len(CCM_CASES)
        for j, branch in enumerate(LADDER_BRANCHES):
            ops.append(Op(f"ladder {branch}", SWEEP_POINTS,
                          _cli_runner(ladder_argv(branch, sub_seed(self.seed, base + j))),
                          lambda res: checks.check_ladder_report(*res)))
        return ops

    def warm_up(self):
        call_cli(verify_argv("minkowski", "1", 0.0, 1, points=2))
        call_cli(ccm_argv(2, 1, 1, points=2))
        call_cli(ladder_argv("trig", 1, points=2))

    def final_check(self):
        """Central-difference brackets {H, K} at a few points per verified model."""
        for i, (model, k, omega) in enumerate(VERIFY_CASES):
            mdl = catalog_model(model, k, omega)
            label = checks.expected_integrals(model, k, omega, PARAMS["m"], PARAMS["n"])[-1]
            K = mdl.integral(label)
            rng = random.Random(sub_seed(self.seed, 500 + i))
            for _ in range(FD_POINTS):
                z = [rng.uniform(*w) for w in mdl.q_windows] + [rng.uniform(-2.0, 2.0) for _ in range(2)]
                checks.check_fd_bracket(_on_floats(mdl.H), _on_floats(K), z)


def _cli_runner(argv):
    return lambda: call_cli(argv)


def _on_floats(f):
    """A phase function as a plain function of the list (q..., p...)."""
    def value(z):
        d = len(z) // 2
        return f(PhasePoint(tuple(z[:d]), tuple(z[d:])))
    return value


# -- oracle --------------------------------------------------------------------

ORACLE_POINTS = 4
ORACLE_OMEGA = 0.3
K_CASES = [(1, 1), (2, 1), (3, 2), (4, 1), (6, 1), (5, 3)]
GN_CASES = [1, 2, 3, 4, 5]
KBAR_CASES = [(2, 1), (4, 1), (4, 3)]


def oracle_base():
    """The Section 3 base system, V = 0.7 e^(-4 psi) + 1.3 e^(-2 psi)."""
    return catalog.exp_base(0.7, 1.3)


def section3_extension(base, m, n, omega):
    profile = GammaProfile.from_c_C(-4.0, 0.0)
    return Extension(ExtensionSpec(m, n, -4.0, 0.0, omega, profile), base)


class Oracle(Workload):
    """Recursive constructions (U-operator, G_n recursion) against closed forms."""

    name = "oracle"
    nominal_round_s = 1.75

    def build_ops(self):
        base = oracle_base()
        if self.tracer is not None:
            base.G.rule = self.tracer.counted(base.G.rule, "extension.base_rule")
            base.L.rule = self.tracer.counted(base.L.rule, "extension.base_rule")
        self.brackets = []
        ops = []
        index = 0
        for m, n in K_CASES:
            ext = section3_extension(base, m, n, 0.0)
            kr, kc = ext.k_recursive(), ext.k_closed()
            pts = self._points(index, 2)
            ops.append(self._op(f"K({m},{n})", f"extension.k_recursive.{m}-{n}",
                                kr, kc, ext.k_magnitude, pts))
            self.brackets.append((f"K({m},{n})", ext.hamiltonian(), kr, kc, pts[0]))
            index += 1
        ext1 = section3_extension(base, 1, 1, 0.0)
        for n in GN_CASES:
            ops.append(self._op(f"G_{n}", f"extension.gn_recursive.{n}",
                                ext1.gn_recursive(n), ext1.gn_closed(n), None,
                                self._points(index, 1)))
            index += 1
        for m, n in KBAR_CASES:
            s = m // 2
            ext = section3_extension(base, m, n, ORACLE_OMEGA)
            kr, kc = ext.kbar_recursive(s, n), ext.kbar_closed(s, n)
            pts = self._points(index, 2)
            ops.append(self._op(f"Kbar({m},{n})", f"extension.kbar_recursive.{m}-{n}", kr, kc,
                                lambda x, ext=ext, s=s, n=n: ext.kbar_magnitude(x, s, n), pts))
            self.brackets.append((f"Kbar({m},{n})", ext.hamiltonian(), kr, kc, pts[0]))
            index += 1
        return ops

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _points(self, index, dof):
        rng = random.Random(sub_seed(self.seed, index))
        pts = []
        for _ in range(ORACLE_POINTS):
            q = tuple(rng.uniform(0.3, 2.0) for _ in range(dof))
            p = tuple(rng.uniform(-2.0, 2.0) for _ in range(dof))
            pts.append(PhasePoint(q, p))
        return pts

    def _op(self, label, span_name, recursive, closed, magnitude, pts):
        def run():
            out = []
            for x in pts:
                with self.span(span_name):
                    r = recursive(x)
                c = closed(x)
                out.append((r, c, magnitude(x) if magnitude is not None else 0.0))
            return out

        def check(results):
            for r, c, mag in results:
                checks.check_agreement(r, c, mag, label)
            return True

        return Op(f"oracle {label}", len(pts), run, check)

    def warm_up(self):
        self.ops[0].run()

    def final_check(self):
        """{H, K_recursive} vanishes at the first point of each construction."""
        for label, H, kr, kc, x in self.brackets:
            checks.check_vanishing_bracket(poisson_bracket(H, kr, x), bracket_scale(H, kc, x),
                                           f"{{H, {label} recursive}}")


# -- flow ----------------------------------------------------------------------

FLOW_ALPHA, FLOW_BETA = 1.0, 2.0
FLOW_H = 1e-3
FLOW_T = 0.2
# (k, Omega): each starts near the README orbit (1, 0, 3.2, 0.5), moving out
FLOW_ORBITS = [("1", 0.0), ("1/2", 0.0), ("2", 0.0), ("1", 0.3)]
FLOW_CENTRE = (1.0, 0.0, 3.2, 0.5)
FLOW_JITTER = 0.1


class Flow(Workload):
    """Implicit-midpoint trajectories through extham integrate, each at h and h/2."""

    name = "flow"
    nominal_round_s = 1.3

    def build_ops(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="flow-", dir=OUT_DIR)
        self.paths = []
        self.drifts = {}
        ops = []
        for i, (k, omega) in enumerate(FLOW_ORBITS):
            rng = random.Random(sub_seed(self.seed, i))
            x0 = [c + rng.uniform(-FLOW_JITTER, FLOW_JITTER) for c in FLOW_CENTRE]
            for h in (FLOW_H, FLOW_H / 2):
                steps = round(FLOW_T / h)
                path = os.path.join(self.tmp, f"orbit{i}-h{h:g}.csv")
                self.paths.append(path)
                argv = ["integrate", "--model", "minkowski", "--k", k, "--omega", repr(omega),
                        "--alpha", repr(FLOW_ALPHA), "--beta", repr(FLOW_BETA),
                        "--chart", "pseudo-polar", "--x0", *map(repr, x0), "--h", repr(h),
                        "--steps", str(steps), "--u-min", "0.05", "--csv", path]
                ops.append(Op(f"integrate k={k} Omega={omega} h={h:g}", steps, _cli_runner(argv),
                              self._checker(path, steps, h, float(Fraction(k)), omega)))
        return ops

    def _checker(self, path, steps, h, k, omega):
        def check(res):
            code, report = res
            checks.require(code == 0, f"integrate exited {code}")
            rows = checks.read_trajectory(path)
            self.drifts[path] = checks.check_flow(report, rows, steps, h, k,
                                                  FLOW_ALPHA, FLOW_BETA, omega)
            return True
        return check

    def round_check(self):
        for i in range(0, len(self.ops), 2):
            # an operation whose own check failed has no drift to compare
            drifts = self.drifts.pop(self.paths[i], None), self.drifts.pop(self.paths[i + 1], None)
            if None not in drifts:
                checks.check_order(*drifts, self.ops[i].name)

    def warm_up(self):
        path = os.path.join(self.tmp, "warm-up.csv")
        call_cli(["integrate", "--x0", "1", "0", "3.2", "0.5", "--steps", "10", "--csv", path])

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Flow)}
