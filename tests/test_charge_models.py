"""Property tests on random abelian charge models: a Yukawa tensor that obeys
the charge selection rule passes verify-all at any vev and coupling in
[1e-3, 1e3], and one entry that breaks the rule fails masses.equivariance."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermimass import ModelConfig, save_model
from fermimass.cli import main
from fermimass.model_config import encode_complex

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@st.composite
def charge_models(draw, off_rule=False):
    """(ModelConfig, (l, r) of the off-rule entry or None): u(1)^k, k <= 3,
    with integer charges in [-2, 2], a charged Higgs scalar, 1-3 left and
    1-3 right states, and a Yukawa entry y * c wherever q_L = q_R + q_H,
    v and y log-uniform in [1e-3, 1e3]; with off_rule, one more entry
    where the rule fails, when the charges leave such a pair."""
    k, n_left, n_right = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    v, y = draw(LOG_UNIFORM), draw(LOG_UNIFORM)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q_h = np.zeros(k, dtype=int)
    while not q_h.any():
        q_h = rng.integers(-2, 3, k)
    q_r = rng.integers(-2, 3, (n_right, k))
    # most left states take the charge of a right state plus q_H, where that
    # is in range, so that most models carry couplings
    partners = [q + q_h for q in q_r if np.abs(q + q_h).max() <= 2]
    q_l = np.array([partners[rng.integers(len(partners))] if partners and rng.random() < 0.75
                    else rng.integers(-2, 3, k) for _ in range(n_left)])
    on_rule = (q_l[:, None, :] == q_r[None, :, :] + q_h).all(axis=-1)
    coeffs = y * (rng.uniform(0.25, 1.0, on_rule.shape) + 1j * rng.uniform(-1.0, 1.0, on_rule.shape))
    tensor = np.where(on_rule, coeffs, 0.0)
    broken = None
    off = np.argwhere(~on_rule)
    if off_rule and off.size:
        broken = tuple(off[rng.integers(len(off))])
        tensor[broken] = coeffs[broken]

    def charge_rep(charges):
        # one diagonal generator -i diag(q_j) per u(1) factor j
        return encode_complex([np.diag(-1.0j * charges[:, j]) for j in range(k)])

    cfg = ModelConfig(
        schema_version=1,
        algebra={"label": f"u1^{k}", "generator_labels": [f"Q{j}" for j in range(k)],
                 "representations": {"higgs": charge_rep(q_h[None, :]), "left": charge_rep(q_l),
                                     "right": charge_rep(q_r)}},
        higgs={"rep": "higgs", "potential": "mexican_hat", "params": {"lam": 1.0, "v": v},
               "seed": [[1.0, 0.0]]},
        fermions={"rep_left": "left", "rep_right": "right"},
        yukawa={"tensor": encode_complex(tensor[..., None]),
                "conjugate_higgs": [False]},
        lattice={"n": 1, "sites_per_dim": 2, "spacing": 1.0, "derivative": "fourier_spectral"},
    )
    return cfg, broken


def verify_all(cfg):
    """(exit code, report) of fermimass verify-all on the model's file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(cfg, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify-all", "--model", path])
    return code, json.loads(out.getvalue())


@PROPERTY
@given(charge_models())
def test_selection_rule_models_pass_verify_all(case):
    cfg, _ = case
    code, doc = verify_all(cfg)
    assert code == 0, [c for c in doc["checks"] if not c["passed"]]


@PROPERTY
@given(charge_models(off_rule=True))
def test_one_off_rule_entry_fails_equivariance(case):
    cfg, broken = case
    assume(broken is not None)  # some (l, r) pair must break the rule
    code, doc = verify_all(cfg)
    checks = {c["id"]: c for c in doc["checks"]}
    assert code == 1
    assert not checks["masses.equivariance"]["passed"]
