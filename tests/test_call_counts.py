"""Work done by one CLI run: the model is parsed once, each representation
is decoded once, each pipeline stage runs at most once per run, a failing
one included, and
the lattice command forms no N x N matrix.  The orbit and closure checks
make stacked calls, the parser is built once per process, and the dense
site-dependent path does no per-site or per-entry work in Python.  The
report is written without json's per-value encoder, and a run does not
import numpy.ma."""

import argparse
import functools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fermimass import (
    TorusLattice,
    build_clifford,
    build_vacuum_dirac,
    cli,
    ew_reference,
    group_rep,
    higgs_vacuum,
    lattice_dirac,
    mass_matrix,
    minimize,
    model_config,
    operator_io,
    reports,
    save_model,
    yukawa_mass,
)
from test_cli import fresh_python

GOLDEN = Path(__file__).resolve().parent / "golden"


def python_encoder(*args, **kwargs):
    raise AssertionError("json's pure-Python encoder was called")


@pytest.fixture()
def counts(monkeypatch):
    """Call counters on the program's own names, restored after the test."""
    seen = {}

    def count(holder, name):
        original = getattr(holder, name)
        seen[name] = 0

        def counted(*args, **kwargs):
            seen[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(holder, name, counted)

    for name in ("build", "build_rep", "build_lattice", "wilson_theta", "build_tolerances"):
        count(model_config.ModelConfig, name)
    count(group_rep.LieAlgebraRep, "__post_init__")
    count(reports, "minimize")
    count(reports, "mass_matrix")
    count(reports, "require_lattice_fits")
    # one counter for both bindings of the name
    count(reports, "branch_momentum_shifts")
    count(lattice_dirac, "branch_momentum_shifts")
    count(model_config.BuiltModel, "wilson_fields")
    # one counter for the three bindings of the name
    count(group_rep, "exp_map")
    count(higgs_vacuum, "exp_map")
    count(yukawa_mass, "exp_map")
    count(np.linalg, "lstsq")
    # a cached property: count the computations behind the cache
    row = TorusLattice.__dict__["derivative_row"].func
    seen["derivative_row"] = 0

    def counted_row(lat):
        seen["derivative_row"] += 1
        return row(lat)

    cached = functools.cached_property(counted_row)
    cached.__set_name__(TorusLattice, "derivative_row")
    monkeypatch.setattr(TorusLattice, "derivative_row", cached)
    return seen


def test_verify_all_builds_each_object_once(counts, capsys):
    assert cli.main(["verify-all", "--model", "ew-reference"]) == 0
    # one parse of the model, which reads each section once; three
    # representations, each decoded once, plus the fermions' direct sum and
    # the direct sum of all three, whose one least-squares solve is the
    # check's closure verdict; the Wilson line's fields
    # and momentum shifts are computed once; one stacked exp_map samples
    # the potential's invariance and the orbit lemma makes one per
    # representation; the lattice's derivative row is computed once for the
    # Dirac operator, both connections and the curvature; the memory guard
    # runs once, before anything is computed
    assert counts == {"build": 1, "build_rep": 3, "build_lattice": 1, "wilson_theta": 1,
                      "build_tolerances": 1, "__post_init__": 5, "lstsq": 1, "minimize": 1,
                      "mass_matrix": 1, "require_lattice_fits": 1, "branch_momentum_shifts": 1,
                      "wilson_fields": 1, "exp_map": 3, "derivative_row": 1}


def test_lattice_runs_the_memory_guard_once(counts, capsys):
    assert cli.main(["lattice", "--model", "ew-reference"]) == 0
    assert counts["require_lattice_fits"] == 1


def test_check_parses_the_model_once(counts, capsys, tmp_path):
    path = tmp_path / "ew.json"
    save_model(ew_reference(), path)
    assert cli.main(["check", "--model", str(path)]) == 0
    assert (counts["build"], counts["build_tolerances"], counts["build_rep"]) == (1, 1, 3)


def test_two_runs_build_one_parser(monkeypatch, capsys):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert cli.main(["check", "--model", "ew-reference"]) == 0
    # the top-level parser and one subparser per command, once
    assert progs.count("fermimass") == 1
    assert len(progs) == 1 + len(cli.COMMANDS)


def test_failed_minimization_runs_once(counts, capsys, tmp_path):
    cfg = ew_reference()
    cfg.higgs["seed"] = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "saddle.json"
    save_model(cfg, path)
    assert cli.main(["verify-all", "--model", str(path)]) == 1
    assert (counts["minimize"], counts["mass_matrix"]) == (1, 0)


def test_lattice_path_never_densifies(monkeypatch, capsys, tmp_path):
    # n=2, L=5: N = 5^4 * 4 * 3 = 7500, so one dense complex matrix is 0.9 GB
    cfg = ew_reference()
    cfg.lattice.update({"n": 2, "sites_per_dim": 5})
    cfg.wilson = {"theta": [[0.25], [0.0], [0.1], [-0.3]]}
    path = tmp_path / "n2-L5.json"
    save_model(cfg, path)

    def dense_fill(op):
        raise AssertionError(f"the lattice command filled in the dense matrix of {op.kind!r}")

    monkeypatch.setattr(lattice_dirac.LatticeOperator, "matrix", property(dense_fill))
    tracemalloc.start()
    try:
        assert cli.main(["verify-all", "--model", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20


def test_verify_all_report_skips_the_pure_python_json_encoder(monkeypatch, capsys):
    monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
    assert cli.main(["verify-all", "--model", "ew-reference"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "verify_all_ew.json").read_bytes()


def test_verify_all_does_not_import_numpy_ma():
    # numpy.ma costs about 1 MB of peak memory; np.unique imports it
    code = ("import sys; from fermimass import cli; "
            "assert cli.main(['verify-all', '--model', 'ew-reference']) == 0; "
            "print('numpy.ma' in sys.modules, file=sys.stderr)")
    done = fresh_python("-c", code)
    assert (done.returncode, done.stderr) == (0, "False\n")


def test_dump_operator_uses_the_c_json_encoder(monkeypatch, tmp_path, ew_md, ew_frep):
    monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
    op = build_vacuum_dirac(TorusLattice(n=1, L=2), build_clifford(1), ew_md, ew_frep)
    operator_io.dump_operator(op, tmp_path / "op.json")
    assert operator_io.load_operator(tmp_path / "op.json").matrix.shape == op.matrix.shape


def test_dump_operator_writes_compressed_binary_entries(tmp_path, ew_md, ew_frep):
    """The entries are one string, and the file is under a quarter of the
    matrix's raw complex128 bytes: neither text pairs nor uncompressed bytes."""
    op = build_vacuum_dirac(TorusLattice(n=1, L=8), build_clifford(1), ew_md, ew_frep)
    path = tmp_path / "op.json"
    operator_io.dump_operator(op, path)
    side = op.matrix.shape[0]
    assert isinstance(json.loads(path.read_text())["entries"], str)
    assert path.stat().st_size < 16 * side * side / 4


def fluctuation_calls(monkeypatch, L):
    """Calls of the site-block helpers made by one fluctuation_operator call
    with gauge and Higgs fluctuations at n=1 and L sites per axis."""
    built = ew_reference().build()
    vac = minimize(built.higgs, built.seed)
    lat, cl = TorusLattice(n=1, L=L), build_clifford(1)
    op = build_vacuum_dirac(lat, cl, mass_matrix(built.ymap, vac), built.frep)
    rng = np.random.default_rng(L)
    A = rng.standard_normal((lat.dim, lat.n_sites, built.frep.total.dim_g))
    phi = rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2))
    seen = {"apply_yukawa": 0, "element": 0, "kron": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            seen[name] += 1
            return original(*args, **kwargs)

        return call

    with monkeypatch.context() as m:
        for holder, name in ((lattice_dirac, "apply_yukawa"), (yukawa_mass, "apply_yukawa"),
                             (group_rep.LieAlgebraRep, "element"), (np, "kron")):
            m.setattr(holder, name, counted(name, getattr(holder, name)))
        lattice_dirac.fluctuation_operator(
            op, A, phi, built.ymap, cl, built.frep, 0.5,
            unitary_split=(vac.goldstone_basis, vac.physical_basis),
        )
    return seen


def test_fluctuation_work_does_not_grow_with_sites(monkeypatch):
    assert fluctuation_calls(monkeypatch, 4) == fluctuation_calls(monkeypatch, 8)


def test_dense_spectrum_is_one_half_size_svd(monkeypatch):
    # a fluctuation and its gauge transform are odd under gamma5 x chi, so
    # each spectrum is one SVD of the (+, -) block and no full eigensolve;
    # a stray nonzero in a same-class block would fall back unnoticed
    built = ew_reference().build()
    vac = minimize(built.higgs, built.seed)
    lat, cl = TorusLattice(n=1, L=4), build_clifford(1)
    op = build_vacuum_dirac(lat, cl, mass_matrix(built.ymap, vac), built.frep)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((lat.dim, lat.n_sites, built.frep.total.dim_g))
    phi = rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2))
    fl = lattice_dirac.fluctuation_operator(op, A, phi, built.ymap, cl, built.frep, 0.5,
                                            unitary_split=(vac.goldstone_basis, vac.physical_basis))
    us = [group_rep.exp_map(built.frep.total, rng.standard_normal(built.frep.total.dim_g))
          for _ in range(lat.n_sites)]
    moved = lattice_dirac.gauge_transform(fl, np.array(us))
    side = fl.matrix.shape[0]
    for dense in (fl, moved):
        shapes = {"svd": [], "eigvalsh": []}

        def recorded(name, original):
            def call(a, *args, **kwargs):
                shapes[name].append(a.shape)
                return original(a, *args, **kwargs)

            return call

        with monkeypatch.context() as m:
            for name in shapes:
                m.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
            lattice_dirac.spectrum(dense)
        assert shapes == {"svd": [(side // 2, side // 2)], "eigvalsh": []}
