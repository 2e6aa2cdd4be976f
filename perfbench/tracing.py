"""Spans around calls into mbloch's layers, recorded from outside the package.

``install`` replaces each traced public function, in every mbloch module
namespace that holds it, by a wrapper that records a span: name, start,
end, parent span and operation id.  Callers look those names up at call
time (``mbloch.cli.integrate``, ``equilibria.quartic_roots`` inside
``cartan_classify``, ``verify.SUITES[...]``), so the wrappers see the calls
without any change to the package.  ``uninstall`` puts the originals back
for the untraced passes.

Spans live in flat arrays and are written out once, when the run ends.
"""

import dataclasses
import importlib
import math
import os
import time
from array import array

import numpy as np

MODULES = ("mbloch", "mbloch.core", "mbloch.integrate", "mbloch.equilibria",
           "mbloch.solutions", "mbloch.invariant_sets", "mbloch.verify", "mbloch.cli")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # rows, points or steps done by the call
        self.work2 = array("d")  # bytes written or field evaluations
        self.unit = array("i")  # traced unit (-1: layer probe)
        self.current_op = -1
        self.current_unit = -1
        self._stack = [-1]
        self.deferred = []  # rk45 calls awaiting their counting pass

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.unit.append(self.current_unit)
        self.work.append(0.0)
        self.work2.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "work": np.frombuffer(self.work),
            "work2": np.frombuffer(self.work2),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _cfg_of(args, kwargs):
    return kwargs["cfg"] if "cfg" in kwargs else args[1]


def _make_wrapper(tracer, fn, name, after=None):
    name_of = name if callable(name) else (lambda args, kwargs: name)

    def wrapper(*args, **kwargs):
        idx = tracer.begin(name_of(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if after is not None:
            after(idx, args, kwargs, out)
        return out

    return wrapper


class Instrumentation:
    """The set of wrappers for one mbloch import; install/uninstall toggle them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.mods = [importlib.import_module(m) for m in MODULES]
        core = importlib.import_module("mbloch.core")
        integ = importlib.import_module("mbloch.integrate")
        eq = importlib.import_module("mbloch.equilibria")
        sol = importlib.import_module("mbloch.solutions")
        inv = importlib.import_module("mbloch.invariant_sets")
        cli = importlib.import_module("mbloch.cli")
        self.verify = importlib.import_module("mbloch.verify")
        self.orig_integrate = integ.integrate
        self.orig_vector_field = core.vector_field
        t = tracer

        def steps_of(idx, args, kwargs, out):
            cfg = _cfg_of(args, kwargs)
            if cfg.method == "rk4":
                t.work[idx] = math.ceil(cfg.t_end / cfg.dt - 1e-12)
            else:
                field = kwargs.get("field", args[2] if len(args) > 2 else None)
                t.deferred.append((idx, args[0], cfg, field, out))

        def rows_of(idx, args, kwargs, out):
            t.work[idx] = len(args[1])
            t.work2[idx] = os.path.getsize(args[0])

        def points_of(idx, args, kwargs, out):
            t.work[idx] = np.size(args[1])

        self.targets = [
            (core.vector_field, "core.vector_field", None),
            (core.conserved, "core.conserved", None),
            (core.poisson_bracket, "core.poisson_bracket", None),
            (core.jacobi_defect, "core.jacobi_defect", None),
            (integ.integrate,
             lambda args, kwargs: "integrate." + _cfg_of(args, kwargs).method, steps_of),
            (integ.drift_report, "integrate.drift_report", None),
            (eq.cartan_classify, "equilibria.cartan_classify", None),
            (eq.origin_stability_certificate, "equilibria.origin_stability_certificate", None),
            (eq.quartic_roots, "equilibria.quartic_roots", None),
            (sol.homoclinic, "solutions.homoclinic", points_of),
            (sol.periodic_solution, "solutions.periodic_solution", points_of),
            (inv.rank_F, "invariant_sets.rank_F", None),
            (inv.invariance_probe, "invariant_sets.invariance_probe", None),
            (cli.write_trajectory_csv, "cli.write_trajectory_csv", rows_of),
            (cli.write_orbit_csv, "cli.write_orbit_csv", rows_of),
        ]
        self._saved = []

    def install(self):
        for fn, name, after in self.targets:
            wrapper = _make_wrapper(self.tracer, fn, name, after)
            for mod in self.mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        suites = self.verify.SUITES
        for key, fn in list(suites.items()):
            self._saved.append((suites, key, fn))
            suites[key] = _make_wrapper(self.tracer, fn, "verify." + key)

    def uninstall(self):
        for holder, key, fn in reversed(self._saved):
            if isinstance(holder, dict):
                holder[key] = fn
            else:
                setattr(holder, key, fn)
        self._saved = []

    def count_pass(self):
        """Re-run each deferred rk45 call with a counting field and stride 1.

        The default path integrates ``_np_field_default``; the counting path
        wraps ``core.vector_field`` (or the caller's own field).  Their
        samples must be bit-identical, so the counts describe the timed
        path.  Returns the number of calls where they were not.
        """
        mismatches = 0
        for idx, p0, cfg, field, traj in self.tracer.deferred:
            evals = [0]
            base = field if field is not None else self.orig_vector_field

            def counting(p, base=base):
                evals[0] += 1
                return base(p)

            ref = self.orig_integrate(p0, dataclasses.replace(cfg, sample_stride=1),
                                      field=counting)
            keep = list(range(0, len(ref), cfg.sample_stride))
            if keep[-1] != len(ref) - 1:
                keep.append(len(ref) - 1)
            if not (np.array_equal(ref.times[keep], traj.times)
                    and np.array_equal(ref.states[keep], traj.states)):
                mismatches += 1
            self.tracer.work[idx] = len(ref) - 1
            self.tracer.work2[idx] = evals[0]
        self.tracer.deferred = []
        return mismatches


# --- per-layer metrics -----------------------------------------------------

# (metric, unit, span name, how).  "us_per_call", "s_per_call" and
# "us_per_work" are times from the workload's own spans, or from the layer
# probe when the workload never calls the function; "*_per_unit" are counts
# per workload unit.
LAYER_TABLE = [
    ("integrate.rk4.us_per_step", "us", "integrate.rk4", "us_per_work"),
    ("integrate.rk4.steps", "count", "integrate.rk4", "work_per_unit"),
    ("integrate.rk45.us_per_accepted_step", "us", "integrate.rk45", "us_per_work"),
    ("integrate.rk45.us_per_call", "us", "integrate.rk45", "us_per_call"),
    ("integrate.rk45.accepted_steps", "count", "integrate.rk45", "work_per_unit"),
    ("integrate.rk45.field_evals", "count", "integrate.rk45", "work2_per_unit"),
    ("integrate.drift_report.us_per_call", "us", "integrate.drift_report", "us_per_call"),
    ("cli.write_trajectory_csv.us_per_row", "us", "cli.write_trajectory_csv", "us_per_work"),
    ("cli.write_orbit_csv.us_per_row", "us", "cli.write_orbit_csv", "us_per_work"),
    ("core.vector_field.us_per_call", "us", "core.vector_field", "us_per_call"),
    ("core.conserved.us_per_call", "us", "core.conserved", "us_per_call"),
    ("core.poisson_bracket.us_per_call", "us", "core.poisson_bracket", "us_per_call"),
    ("core.jacobi_defect.us_per_call", "us", "core.jacobi_defect", "us_per_call"),
    ("equilibria.cartan_classify.us_per_call", "us", "equilibria.cartan_classify",
     "us_per_call"),
    ("equilibria.origin_stability_certificate.s", "s",
     "equilibria.origin_stability_certificate", "s_per_call"),
    ("equilibria.quartic_roots.us_per_call", "us", "equilibria.quartic_roots", "us_per_call"),
    ("solutions.homoclinic.us_per_point", "us", "solutions.homoclinic", "us_per_work"),
    ("solutions.periodic_solution.us_per_point", "us", "solutions.periodic_solution",
     "us_per_work"),
    ("invariant_sets.rank_F.us_per_call", "us", "invariant_sets.rank_F", "us_per_call"),
    ("invariant_sets.invariance_probe.s", "s", "invariant_sets.invariance_probe",
     "s_per_call"),
]
SUBCOMMANDS = ("simulate", "classify", "homoclinic", "periodic", "rank",
               "invariant-probe", "verify")
SUITES = ("core", "equilibria", "integrate", "solutions", "invariant_sets")
LAYER_TABLE += [(f"cli.{c}.s", "s", f"cli.{c}", "s_per_call") for c in SUBCOMMANDS]
LAYER_TABLE += [(f"verify.{s}.s", "s", f"verify.{s}", "s_per_call") for s in SUITES]
LAYERS = ("core", "integrate", "equilibria", "solutions", "invariant_sets", "verify",
          "cli", "op")


def span_table(tracer):
    """Per span name and population (unit >= 0, or probe): calls, total
    time, self time, work, work2.  Self time is a span's duration minus the
    durations of its direct children."""
    a = tracer.arrays()
    n = len(a["start"])
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child[:n]
    out = {}
    for pop, mask in (("main", a["unit"] >= 0), ("probe", a["unit"] < 0)):
        ids = a["name_id"][mask]
        k = len(tracer.names)
        cols = [np.bincount(ids, minlength=k),
                np.bincount(ids, weights=dur[mask], minlength=k),
                np.bincount(ids, weights=self_t[mask], minlength=k),
                np.bincount(ids, weights=a["work"][mask], minlength=k),
                np.bincount(ids, weights=a["work2"][mask], minlength=k)]
        out[pop] = {name: tuple(float(c[i]) for c in cols)
                    for i, name in enumerate(tracer.names) if cols[0][i] > 0}
    return out


def layer_metrics(table, units):
    """The per-layer metrics of LAYER_TABLE plus derived rk45 counts.

    Returns (metrics, sources): metrics maps name -> (value, unit); sources
    says where each time came from ("spans" or "probe")."""
    main, probe = table["main"], table["probe"]
    metrics, sources = {}, {}
    for metric, unit, span, how in LAYER_TABLE:
        if how.endswith("_per_unit"):
            calls, _, _, work, work2 = main.get(span, (0, 0, 0, 0, 0))
            metrics[metric] = (float((work if how == "work_per_unit" else work2) / units),
                               unit)
            continue
        src = "spans" if span in main else "probe"
        calls, total, _, work, _ = (main if src == "spans" else probe)[span]
        if how == "us_per_call":
            value = 1e6 * total / calls
        elif how == "s_per_call":
            value = total / calls
        else:
            value = 1e6 * total / work
        metrics[metric] = (value, unit)
        sources[metric] = src
    acc, ev = (main.get("integrate.rk45", (0, 0, 0, 0, 0))[3:5])
    metrics["integrate.rk45.rejected_steps"] = ((ev / 7 - acc) / units, "count")
    pop = main if "integrate.rk45" in main else probe
    acc_p, ev_p = pop["integrate.rk45"][3:5]
    metrics["integrate.rk45.accept_ratio"] = (acc_p / (ev_p / 7), "ratio")
    sources["integrate.rk45.accept_ratio"] = "spans" if pop is main else "probe"
    rows = sum(main.get(s, (0, 0, 0, 0, 0))[3]
               for s in ("cli.write_trajectory_csv", "cli.write_orbit_csv"))
    nbytes = sum(main.get(s, (0, 0, 0, 0, 0))[4]
                 for s in ("cli.write_trajectory_csv", "cli.write_orbit_csv"))
    metrics["cli.csv_rows"] = (rows / units, "count")
    metrics["cli.csv_bytes"] = (nbytes / units, "bytes")
    core_calls = sum(v[0] for k, v in main.items() if k.startswith("core."))
    metrics["core.calls"] = (core_calls / units, "count")
    return metrics, sources


def self_time_by_layer(table, units):
    """Self seconds per unit of each layer (span-name prefix)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_t, _, _) in table["main"].items():
        out[name.split(".")[0]] += self_t / units
    return out
