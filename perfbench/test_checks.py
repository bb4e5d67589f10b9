"""Tests of the benchmark's own checks and tracer.

Run from the root of a checkout:  python3 -m pytest perfbench -q

Each check must pass on the program's real output and fail once a single
reported eigenvalue or matrix entry is perturbed.
"""

import copy
import json
import os

import numpy as np
import pytest

import program

program.import_program(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SmallLattice(workloads.LatticeVerify):
    """lattice-verify on the 2-torus, so the test runs in well under a second."""

    N_HALF, L, WARM_L = 1, 4, 2


class SmallFluctuation(workloads.FluctuationIO):
    L = 3


def run_round(workload):
    (run, check), *rest = workload.round()
    return run, check, rest


@pytest.fixture()
def lattice(tmp_path):
    w = SmallLattice(seed=5, workdir=str(tmp_path))
    run, check, _ = run_round(w)
    run()
    return w


def test_lattice_check_passes_and_catches_a_perturbed_eigenvalue(lattice):
    model, out = lattice.paths[lattice.L]
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    args = (lattice.N_HALF, lattice.L, 1.0, lattice.y, lattice.v, lattice.theta)
    assert checks.check_lattice_report(doc, *args) == []
    bad = copy.deepcopy(doc)
    bad["data"]["lattice"]["spectrum_sq"][7] += 1e-6
    assert any("spectrum_sq" in e for e in checks.check_lattice_report(bad, *args))
    bad = copy.deepcopy(doc)
    bad["data"]["lattice"]["curvature_max"] *= 1.0 + 1e-6
    assert any("curvature_max" in e for e in checks.check_lattice_report(bad, *args))


def test_lattice_closed_form_depends_on_the_wilson_line(lattice):
    with open(lattice.paths[lattice.L][1], encoding="utf-8") as fh:
        doc = json.load(fh)
    shifted = lattice.theta + 0.01
    args = (lattice.N_HALF, lattice.L, 1.0, lattice.y, lattice.v, shifted)
    assert checks.check_lattice_report(doc, *args)


def test_sweep_checks_pass_and_catch_perturbed_output(tmp_path):
    sweep = workloads.ModelSweep(seed=11, workdir=str(tmp_path))
    for run, check in sweep.round():
        run()
        assert check(None) == []
    _, out, spec = sweep.models[2]
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    bad = copy.deepcopy(doc)
    bad["data"]["masses"]["spectrum_sq"][-1] *= 1.0 + 1e-6
    assert any("spectrum_sq" in e for e in checks.check_sweep_report(bad, spec))
    bad = copy.deepcopy(doc)
    bad["data"]["break"]["goldstone_count"] += 1
    assert any("goldstone" in e for e in checks.check_sweep_report(bad, spec))


def test_sweep_family_is_fixed_in_shape_and_seeded_in_values(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.ModelSweep(seed=1, workdir=str(tmp_path / "a"))
    b = workloads.ModelSweep(seed=2, workdir=str(tmp_path / "b"))
    for (_, _, sa), (_, _, sb) in zip(a.models, b.models):
        assert sa["yukawa"].shape == sb["yukawa"].shape
        assert sa["n_fiber"] == sb["n_fiber"]
        assert not np.array_equal(sa["yukawa"], sb["yukawa"])


def test_fluctuation_checks_pass_and_catch_perturbed_entries(tmp_path):
    w = SmallFluctuation(seed=3, workdir=str(tmp_path))
    run, check, _ = run_round(w)
    result = run()
    assert check(result) == []
    fluct, spectra, moved, moved_spectrum, loaded, read_back = result

    leaked = fluct[2].matrix.copy()
    leaked[0, -1] += 1e-14
    assert checks.check_fluctuation(w.vacuum.matrix, leaked, w.TS[2], w.mask)
    assert checks.check_fluctuation(w.vacuum.matrix, fluct[1].matrix, 0.0, w.mask)

    loaded.matrix[3, 3] = np.nextafter(loaded.matrix[3, 3].real, np.inf) + 1j * loaded.matrix[3, 3].imag
    assert checks.check_operator_round_trip(moved, loaded)
    bumped = read_back.copy()
    bumped[0] = np.nextafter(bumped[0], np.inf)
    assert checks.check_spectrum_round_trip(moved_spectrum, bumped)
    shifted = moved_spectrum.copy()
    shifted[4] += 1e-6
    assert checks.check_gauge_spectrum(spectra[-1], shifted)


def test_tracer_counts_calls_and_restores_the_program(tmp_path):
    from fermimass import cli, group_rep, reports

    originals = (cli.main, reports.spectrum, cli.COMMANDS["verify-all"],
                 group_rep.LieAlgebraRep.__post_init__)
    w = SmallLattice(seed=1, workdir=str(tmp_path))
    run, _, _ = run_round(w)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.op(run)
    assert (cli.main, reports.spectrum, cli.COMMANDS["verify-all"],
            group_rep.LieAlgebraRep.__post_init__) == originals
    layer = tracer.layer_metrics()
    assert layer["model_config.build_rep_calls"][0] == 13
    assert layer["group_rep.rep_constructions"][0] == 15
    assert layer["higgs_vacuum.minimize_calls"][0] == 1
    assert layer["lattice_dirac.matrix_side"][0] == 4 ** 2 * 2 * 3
    # self times partition each op: the module shares add up to 100%
    shares = sum(v for k, (v, _) in layer.items()
                 if k.startswith("share.") and k != "share.lattice_dirac_site")
    assert shares == pytest.approx(100.0)


def test_an_op_that_exits_non_zero_makes_the_run_incorrect(tmp_path, monkeypatch):
    import run
    from fermimass import cli

    sweep = workloads.ModelSweep(seed=1, workdir=str(tmp_path))
    monkeypatch.setattr(cli, "main", lambda argv: 1)  # verify-all: its own checks failed
    loop = run.measure(sweep, 1e-9)
    line = run.result(loop, run.end_to_end(loop, 1.0))
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 12, 12)
    assert line["metrics"]["ops_per_s"]["value"] == 0.0
    json.dumps(line, allow_nan=False)


class RaisingCheck:
    def round(self):
        def check(_):
            raise ValueError("malformed report")

        return [(lambda: None, check), (lambda: None, lambda _: [])]


def test_a_check_that_raises_counts_as_a_failed_op():
    import run

    loop = run.measure(RaisingCheck(), 1e-9)
    line = run.result(loop, run.end_to_end(loop, 1.0))
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)
    assert line["metrics"]["ops_per_s"]["value"] > 0
