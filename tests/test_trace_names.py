"""The benchmark's tracer wraps program functions by name; a name that is
renamed or removed in the program would break a traced run, and a name
the program no longer calls would time nothing.  The tracer module is
read and executed here without importing it as a package module, so no
file is written next to it."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    missing = [
        (span, name)
        for span, targets, _ in load_tracing().span_table()
        for holder, name in targets
        if not (name in holder if isinstance(holder, dict) else hasattr(holder, name))
    ]
    assert missing == []


# the spans a verify-all of ew-reference enters, from the entry point
# through the lattice spectrum; a span that is wrapped but no longer
# called would time nothing and read 0 in the benchmark's per-layer table.
# clifford.build_clifford is not among them: the reports call it by a name
# the table does not wrap.
CLI_PATH = [
    "cli.main", "model_config.resolve_model", "model_config.validate_model",
    "model_config.build_tolerances", "model_config.build_rep", "group_rep.rep_init",
    "group_rep.closure_residual", "group_rep.direct_sum", "higgs_vacuum.invariance_residual",
    "group_rep.exp_map", "model_config.build_lattice", "reports.cmd_verify_all",
    "reports.cmd_break", "higgs_vacuum.minimize", "group_rep.isotropy_algebra",
    "higgs_vacuum.gradient", "higgs_vacuum.hessian", "reports.cmd_masses",
    "yukawa_mass.check_equivariance", "yukawa_mass.mass_matrix", "yukawa_mass.lemma_verify",
    "reports.cmd_lattice", "lattice_dirac.build_vacuum_dirac",
    "lattice_dirac.build_vacuum_connection", "lattice_dirac.relative_curvature",
    "lattice_dirac.contraction_residual", "lattice_dirac.bochner_laplacian",
    "lattice_dirac.dirac_potential", "lattice_dirac.lagrangian_density", "lattice_dirac.mean_mass",
    "lattice_dirac.branch_momentum_shifts", "lattice_dirac.expected_squared_spectrum",
    "reports.to_json", "lattice_dirac.spectrum",
]


def test_every_span_on_the_cli_path_is_entered(tmp_path):
    from fermimass import cli

    tracing = load_tracing()
    table = tracing.span_table()
    assert set(CLI_PATH) <= {span for span, _, _ in table}
    counts = dict.fromkeys((span for span, _, _ in table), 0)

    def counted(span, fn):
        def call(*args, **kwargs):
            counts[span] += 1
            return fn(*args, **kwargs)
        return call

    saved = []
    try:
        for span, targets, _ in table:
            wrapper = counted(span, tracing._get(*targets[0]))
            for holder, name in targets:
                saved.append((holder, name, tracing._get(holder, name)))
                tracing._set(holder, name, wrapper)
        code = cli.main(["verify-all", "--model", "ew-reference", "--out", str(tmp_path / "r.json")])
    finally:
        for holder, name, original in reversed(saved):
            tracing._set(holder, name, original)
    assert code == 0
    assert [span for span in CLI_PATH if not counts[span]] == []
