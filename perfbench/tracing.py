"""Spans around the calls into each fermimass module, for the traced run.

The tracer replaces each public function at every name the pipeline looks
it up by (``fermimass.reports.spectrum`` as well as
``fermimass.lattice_dirac.spectrum``, the ``verify-all`` entry of
``fermimass.cli.COMMANDS`` as well as ``fermimass.reports.cmd_verify_all``)
with a wrapper that records a span, and puts the originals back on exit.
No program file changes.  A span holds its name, start, end, parent span
and op id; spans stay in memory until the run writes them out.  A span's
self time is its duration minus the durations of its direct children
(calls are strictly nested, so the children never overlap).
"""

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

# Modules whose self time is reported as a share of the traced op time.
MODULES = (
    "cli", "reports", "model_config", "group_rep", "higgs_vacuum",
    "yukawa_mass", "clifford", "lattice_dirac", "operator_io",
)

OP_SPAN = "bench.op"


def _side(args, result):
    op = result[0] if isinstance(result, list) else result
    return op.matrix.shape[0]


def _spectrum_arg(args, result):
    return (args[0].matrix.shape[0], args[0].kind)


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def span_table():
    """(span name, [(holder, attribute)], measure) for every traced call.

    A holder is a module, a class or a dict; measure, when given, maps
    (args, result) to a number kept with the span.
    """
    m = {name: importlib.import_module(f"fermimass.{name}") for name in MODULES + ("reference",)}
    cli, rep, mc, gr, hv = m["cli"], m["reports"], m["model_config"], m["group_rep"], m["higgs_vacuum"]
    ym, cf, ld, oi = m["yukawa_mass"], m["clifford"], m["lattice_dirac"], m["operator_io"]
    cfg = mc.ModelConfig
    table = [
        ("cli.main", [(cli, "main")], None),
        ("reports.to_json", [(rep.Report, "to_json")], _text_bytes),
        ("model_config.resolve_model", [(m["reference"], "resolve_model"), (cli, "resolve_model")], None),
        ("model_config.load_model", [(mc, "load_model")], None),
        ("model_config.validate_model", [(mc, "validate_model")], None),
        ("group_rep.rep_init", [(gr.LieAlgebraRep, "__post_init__")], None),
        ("group_rep.closure_residual", [(gr, "closure_residual")], None),
        ("group_rep.exp_map", [(gr, "exp_map"), (hv, "exp_map"), (ym, "exp_map")], None),
        ("group_rep.isotropy_algebra", [(gr, "isotropy_algebra"), (hv, "isotropy_algebra")], None),
        ("group_rep.direct_sum", [(gr, "direct_sum"), (ym, "direct_sum")], None),
        ("higgs_vacuum.minimize", [(hv, "minimize"), (rep, "minimize")], None),
        ("higgs_vacuum.invariance_residual",
         [(hv, "invariance_residual"), (mc, "invariance_residual")], None),
        ("clifford.build_clifford", [(cf, "build_clifford"), (mc, "build_clifford")], None),
        ("lattice_dirac.fluctuation_operator", [(ld, "fluctuation_operator")], _side),
        ("lattice_dirac.gauge_transform", [(ld, "gauge_transform")], _side),
        ("lattice_dirac.spectrum", [(ld, "spectrum"), (rep, "spectrum")], _spectrum_arg),
        ("operator_io.dump_operator", [(oi, "dump_operator")], _file_bytes),
        ("operator_io.load_operator", [(oi, "load_operator")], _side),
        ("operator_io.write_spectrum_csv", [(oi, "write_spectrum_csv")], None),
        ("operator_io.read_spectrum_csv", [(oi, "read_spectrum_csv")], None),
    ]
    for name in ("cmd_verify_all", "cmd_break", "cmd_masses", "cmd_lattice"):
        command = name[4:].replace("_", "-")
        table.append((f"reports.{name}", [(rep, name), (cli.COMMANDS, command)], None))
    for name in ("build_rep", "build_higgs_model", "higgs_seed", "build_fermion_rep",
                 "build_yukawa", "build_lattice", "build_clifford", "build_wilson",
                 "build_tolerances"):
        table.append((f"model_config.{name}", [(cfg, name)], None))
    # called by the reports pipeline only; the minimizer's own gradient
    # evaluations stay untraced
    for name in ("gradient", "hessian"):
        table.append((f"higgs_vacuum.{name}", [(rep, name)], None))
    for name in ("check_equivariance", "mass_matrix", "lemma_verify"):
        table.append((f"yukawa_mass.{name}", [(ym, name), (rep, name)], None))
    for name, measure in (
        ("build_vacuum_dirac", _side), ("build_vacuum_connection", _side),
        ("expected_squared_spectrum", None), ("branch_momentum_shifts", None),
        ("contraction_residual", None), ("relative_curvature", None),
        ("bochner_laplacian", _side), ("dirac_potential", _side),
        ("lagrangian_density", None), ("mean_mass", None),
    ):
        table.append((f"lattice_dirac.{name}", [(ld, name), (rep, name)], measure))
    return table


def _get(holder, key):
    return holder[key] if isinstance(holder, dict) else getattr(holder, key)


def _set(holder, key, value):
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


class Tracer:
    """Records nested spans of the wrapped calls, grouped by op."""

    def __init__(self):
        # [name, start, end, parent index, op id, measured value]
        self.spans = []
        self._stack = []
        self._op = -1

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                rec[5] = measure(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function of span_table() for the duration of the block."""
        saved = []
        try:
            for name, targets, measure in span_table():
                traced = self._wrap(name, _get(*targets[0]), measure)
                for holder, key in targets:
                    saved.append((holder, key, _get(holder, key)))
                    _set(holder, key, traced)
            yield self
        finally:
            for holder, key, original in reversed(saved):
                _set(holder, key, original)

    def op(self, fn):
        """Run one op under a root span with a new op id; return its result."""
        self._op += 1
        return self._wrap(OP_SPAN, fn, None)()

    def op_durations(self):
        return [end - start for name, start, end, *_ in self.spans if name == OP_SPAN]

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def layer_metrics(self):
        """Per-op values of the per-layer metrics, keyed by metric name."""
        n_ops = max(1, len(self.op_durations()))
        self_s = defaultdict(float)
        calls = defaultdict(int)
        measured = defaultdict(list)
        site_spectrum_s = 0.0
        for rec, own in zip(self.spans, self.self_times()):
            name, value = rec[0], rec[5]
            self_s[name] += own
            calls[name] += 1
            if value is not None:
                measured[name].append(value)
            if name == "lattice_dirac.spectrum" and value and value[1] == "fluctuated_dirac":
                site_spectrum_s += own

        def per_op_self(*names):
            return sum(self_s[n] for n in names) / n_ops

        def module_self(module):
            return sum(v for n, v in self_s.items() if n.startswith(module + "."))

        sides = [v if isinstance(v, int) else v[0]
                 for n, vs in measured.items() if n.startswith("lattice_dirac.") for v in vs]
        out = {
            "cli.main_s": (per_op_self("cli.main"), "s"),
            "reports.verify_all_s": (per_op_self(
                "reports.cmd_verify_all", "reports.cmd_break",
                "reports.cmd_masses", "reports.cmd_lattice"), "s"),
            "reports.to_json_s": (per_op_self("reports.to_json"), "s"),
            "reports.report_bytes": (sum(measured["reports.to_json"]) / n_ops, "bytes"),
            "model_config.load_s": (module_self("model_config") / n_ops, "s"),
            "model_config.build_rep_calls": (calls["model_config.build_rep"] / n_ops, "count"),
            "group_rep.rep_constructions": (calls["group_rep.rep_init"] / n_ops, "count"),
            "group_rep.closure_s": (per_op_self("group_rep.closure_residual"), "s"),
            "group_rep.exp_map_calls": (calls["group_rep.exp_map"] / n_ops, "count"),
            "group_rep.exp_map_s": (per_op_self("group_rep.exp_map"), "s"),
            "group_rep.isotropy_s": (per_op_self("group_rep.isotropy_algebra"), "s"),
            "higgs_vacuum.minimize_s": (per_op_self("higgs_vacuum.minimize"), "s"),
            "higgs_vacuum.minimize_calls": (calls["higgs_vacuum.minimize"] / n_ops, "count"),
            "higgs_vacuum.invariance_s": (per_op_self("higgs_vacuum.invariance_residual"), "s"),
            "yukawa_mass.equivariance_s": (per_op_self("yukawa_mass.check_equivariance"), "s"),
            "yukawa_mass.mass_matrix_s": (per_op_self("yukawa_mass.mass_matrix"), "s"),
            "yukawa_mass.lemma_verify_s": (per_op_self("yukawa_mass.lemma_verify"), "s"),
            "clifford.build_s": (per_op_self("clifford.build_clifford"), "s"),
            "lattice_dirac.dirac_build_s": (per_op_self("lattice_dirac.build_vacuum_dirac"), "s"),
            "lattice_dirac.connection_build_s": (
                per_op_self("lattice_dirac.build_vacuum_connection"), "s"),
            "lattice_dirac.spectrum_s": (per_op_self("lattice_dirac.spectrum"), "s"),
            "lattice_dirac.expected_spectrum_s": (per_op_self(
                "lattice_dirac.expected_squared_spectrum",
                "lattice_dirac.branch_momentum_shifts"), "s"),
            "lattice_dirac.contraction_s": (per_op_self("lattice_dirac.contraction_residual"), "s"),
            "lattice_dirac.curvature_s": (per_op_self("lattice_dirac.relative_curvature"), "s"),
            "lattice_dirac.laplacian_s": (per_op_self("lattice_dirac.bochner_laplacian"), "s"),
            "lattice_dirac.potential_s": (per_op_self(
                "lattice_dirac.dirac_potential", "lattice_dirac.lagrangian_density"), "s"),
            "lattice_dirac.matrix_side": (max(sides, default=0), "rows"),
            "lattice_dirac.fluctuation_s": (per_op_self("lattice_dirac.fluctuation_operator"), "s"),
            "lattice_dirac.gauge_transform_s": (per_op_self("lattice_dirac.gauge_transform"), "s"),
            "operator_io.dump_s": (per_op_self("operator_io.dump_operator"), "s"),
            "operator_io.load_s": (per_op_self("operator_io.load_operator"), "s"),
            "operator_io.dump_bytes": (sum(measured["operator_io.dump_operator"]) / n_ops, "bytes"),
            "operator_io.spectrum_csv_s": (per_op_self(
                "operator_io.write_spectrum_csv", "operator_io.read_spectrum_csv"), "s"),
        }
        op_total = sum(self.op_durations()) or 1.0
        for module in MODULES + ("bench",):
            out[f"share.{module}"] = (100.0 * module_self(module) / op_total, "%")
        site = (self_s["lattice_dirac.fluctuation_operator"]
                + self_s["lattice_dirac.gauge_transform"] + site_spectrum_s)
        out["share.lattice_dirac_site"] = (100.0 * site / op_total, "%")
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
