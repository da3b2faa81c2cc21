"""Spans and counts at the package's layer boundaries, recorded from outside.

The tracer replaces public functions of the extham modules (every module
binding that refers to the same function object) with wrappers that open a
span or bump a counter, and restores them on uninstall. Spans carry
(section, name, start, end, parent) and are kept in memory until
``write``; self time is a span's duration minus the time its child spans
cover. Nothing under the package is edited.
"""

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from extham import catalog, ccm, cli, dynamics, extension, ladder, phase, sampling, tagged_trig
from extham.duals import Dual

# (module, function, span name): layer calls timed as spans
SPAN_FUNCTIONS = [
    (cli, "main", "cli.main"),
    (catalog, "make_minkowski_hamiltonian", "catalog.build"),
    (catalog, "make_curved_hamiltonian", "catalog.build"),
    (catalog, "make_flat_ttw_hamiltonian", "catalog.build"),
    (catalog, "make_remark_pair", "catalog.build"),
    (catalog, "polar_coords_generic", "catalog.chart"),
    (catalog, "null_coords_generic", "catalog.chart"),
    (sampling, "sample_points", "sampling.points"),
    (sampling, "sample_scalars", "sampling.points"),
    (phase, "poisson_bracket", "phase.bracket"),
    (phase, "gradient", "phase.gradient"),
    (extension, "bracket_scale", "extension.bracket_scale"),
    (extension, "functional_independence", "extension.rank"),
    (ladder, "ladder_residuals", "ladder.residuals"),
    (dynamics, "integrate", "dynamics.integrate"),
    (dynamics, "drift_report", "dynamics.drift_report"),
]
# (class, method, span name)
SPAN_METHODS = [
    (extension.Extension, "k_magnitude", "extension.k_magnitude"),
    (extension.Extension, "kbar_magnitude", "extension.k_magnitude"),
    (dynamics.Trajectory, "write_csv", "dynamics.csv_write"),
]
# methods returning a PhaseFunction whose evaluation rule is timed as a span
RULE_METHODS = [
    (extension.Extension, "k_closed", "extension.k_closed"),
    (extension.Extension, "kbar_closed", "extension.k_closed"),
]
# hot functions: counted, not timed
COUNT_FUNCTIONS = [
    (phase, "partials_at", "phase.partials_at"),
    (tagged_trig, "gamma", "tagged_trig.gamma"),
]


class Tracer:
    """In-memory span and count recorder, split by benchmark section."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.sections = []
        self._section_id = -1
        self.span_section = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # open spans: [index, name id, start, child time]
        self.stats = {}  # (section, name) -> [calls, inclusive s, self s]
        self.counts = {}  # section -> Counter of counted names
        self.parent_calls = {}  # section -> Counter of (name, parent name)
        self._live_counts = Counter()
        self._patches = []
        self.t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_section(self, section):
        self._section_id = len(self.sections)
        self.sections.append(section)
        self._live_counts = self.counts.setdefault(section, Counter())
        self.parent_calls.setdefault(section, Counter())

    def _enter(self, nid):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        if stack:
            pname = self.names[stack[-1][1]]
            self.parent_calls[self.sections[self._section_id]][(self.names[nid], pname)] += 1
        idx = len(self.span_name)
        self.span_section.append(self._section_id)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        stack.append([idx, nid, time.perf_counter(), 0.0])

    def _leave(self):
        end = time.perf_counter()
        idx, nid, start, child = self._stack.pop()
        self.span_start[idx] = start
        self.span_end[idx] = end
        dur = end - start
        key = (self.sections[self._section_id], self.names[nid])
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    @contextmanager
    def span(self, name):
        self._enter(self._name_id(name))
        try:
            yield
        finally:
            self._leave()

    def timed(self, fn, name):
        nid = self._name_id(name)
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._live_counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- figures ---------------------------------------------------------

    def calls(self, section, name):
        return self.stats.get((section, name), [0, 0.0, 0.0])[0]

    def inclusive(self, section, name):
        return self.stats.get((section, name), [0, 0.0, 0.0])[1]

    def self_time(self, section, name):
        return self.stats.get((section, name), [0, 0.0, 0.0])[2]

    def count(self, section, name):
        return self.counts.get(section, Counter())[name]

    def calls_under(self, section, name, parent):
        return self.parent_calls.get(section, Counter())[(name, parent)]

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Point every extham module binding of original at replacement."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "extham" or modname.startswith("extham.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        for mod, attr, name in SPAN_FUNCTIONS:
            fn = getattr(mod, attr)
            self._replace_everywhere(fn, self.timed(fn, name))
        for mod, attr, name in COUNT_FUNCTIONS:
            fn = getattr(mod, attr)
            self._replace_everywhere(fn, self.counted(fn, name))
        for cls, attr, name in SPAN_METHODS:
            self._replace_method(cls, attr, self.timed(cls.__dict__[attr], name))
        for cls, attr, name in RULE_METHODS:
            self._replace_method(cls, attr, self._rule_timing(cls.__dict__[attr], name))
        self._replace_everywhere(ccm.ccm_transform, self._kprime_timing(ccm.ccm_transform))
        self._replace_method(Dual, "__init__", self.counted(Dual.__dict__["__init__"], "duals.alloc"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _rule_timing(self, method, name):
        tracer = self

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            f = method(*args, **kwargs)
            f.rule = tracer.timed(f.rule, name)
            return f

        return wrapper

    def _kprime_timing(self, transform):
        tracer = self

        @functools.wraps(transform)
        def wrapper(*args, **kwargs):
            Hp, Kp = transform(*args, **kwargs)
            Kp.rule = tracer.timed(Kp.rule, "ccm.kprime")
            return Hp, Kp

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Spans as gzipped CSV: section, name, start and end in us, parent index."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("index,section,name,start_us,end_us,parent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.sections[self.span_section[i]]},{self.names[self.span_name[i]]},"
                         f"{(self.span_start[i] - self.t0) * 1e6:.3f},"
                         f"{(self.span_end[i] - self.t0) * 1e6:.3f},{self.span_parent[i]}\n")
        return len(self.span_name)


def dual_op_ns(depth, reps=5, loops=20000):
    """Median ns of one Dual mul+add at the given nesting depth."""
    def nested(v):
        x = v
        for tag in range(1, depth + 1):
            x = Dual(x, 1.0, tag)
        return x

    a, b, c = nested(1.1), nested(0.9), nested(0.7)
    samples = []
    for _ in range(reps):
        t = time.perf_counter()
        for _ in range(loops):
            a * b + c
        samples.append((time.perf_counter() - t) / loops * 1e9)
    samples.sort()
    return samples[len(samples) // 2]
