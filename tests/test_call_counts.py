"""Work done by one CLI run: each representation is decoded once per model,
and each pipeline stage runs at most once per run, a failing one included."""

import pytest

from fermimass import cli, ew_reference, group_rep, model_config, reports, save_model


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
    return seen


def test_verify_all_builds_each_object_once(counts, capsys):
    assert cli.main(["verify-all", "--model", "ew-reference"]) == 0
    # three representations, each decoded once, plus the fermions' direct sum
    assert counts == {"build_rep": 3, "__post_init__": 4, "minimize": 1, "mass_matrix": 1}


def test_failed_minimization_runs_once(counts, capsys, tmp_path):
    cfg = ew_reference()
    cfg.higgs["seed"] = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "saddle.json"
    save_model(cfg, path)
    assert cli.main(["verify-all", "--model", str(path)]) == 1
    assert (counts["minimize"], counts["mass_matrix"]) == (1, 0)
