"""Work done by one CLI run: each representation is decoded once per model,
each pipeline stage runs at most once per run, a failing one included, and
the lattice command forms no N x N matrix."""

import tracemalloc

import pytest

from fermimass import cli, ew_reference, group_rep, lattice_dirac, model_config, reports, save_model


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

    count(model_config.ModelConfig, "build_rep")
    count(group_rep.LieAlgebraRep, "__post_init__")
    count(reports, "minimize")
    count(reports, "mass_matrix")
    # one counter for both bindings of the name
    count(reports, "branch_momentum_shifts")
    count(lattice_dirac, "branch_momentum_shifts")
    count(reports, "wilson_internal_fields")
    count(lattice_dirac, "wilson_internal_fields")
    return seen


def test_verify_all_builds_each_object_once(counts, capsys):
    assert cli.main(["verify-all", "--model", "ew-reference"]) == 0
    # three representations, each decoded once, plus the fermions' direct
    # sum; the Wilson line's fields and momentum shifts are computed once
    assert counts == {"build_rep": 3, "__post_init__": 4, "minimize": 1, "mass_matrix": 1,
                      "branch_momentum_shifts": 1, "wilson_internal_fields": 1}


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

    def site_table(*args):
        raise AssertionError("the lattice command built the S x S site table")

    monkeypatch.setattr(lattice_dirac, "_site_differences", site_table)
    tracemalloc.start()
    try:
        assert cli.main(["verify-all", "--model", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
