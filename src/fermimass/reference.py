"""Registry of reference models shipped with the package.

The electroweak reference model is a one-generation lepton sector:
su(2)+u(1) with a Higgs doublet of hypercharge +1 in a mexican hat
(lam = 1, v = 2), a left-handed doublet of hypercharge -1, a
right-handed singlet of hypercharge -2, and a single coupling
y_e = 0.5, so the charged lepton mass is y_e * v = 1 and the neutral
partner stays massless.  Hypercharge enters generators as -i * y * Id,
so the unbroken direction is T3 + Y/2.
"""

import numpy as np

from .model_config import ModelConfig, encode_complex, read_model

Y_E = 0.5
LAM = 1.0
V = 2.0

_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _doublet(hypercharge):
    return encode_complex([-0.5j * _S1, -0.5j * _S2, -0.5j * _S3, -1.0j * hypercharge * np.eye(2)])


def _singlet(hypercharge):
    zero = np.zeros((1, 1), dtype=complex)
    return encode_complex([zero, zero, zero, -1.0j * hypercharge * np.eye(1)])


def ew_reference(y_right=-2.0):
    """The electroweak reference model; y_right is exposed for negative tests."""
    tensor = np.zeros((2, 1, 2), dtype=complex)
    tensor[0, 0, 0] = Y_E
    tensor[1, 0, 1] = Y_E
    return ModelConfig(
        schema_version=1,
        label="ew-reference",
        generator_labels=["T1", "T2", "T3", "Y"],
        representations={
            "higgs_doublet": _doublet(+1.0),
            "lepton_left": _doublet(-1.0),
            "lepton_right": _singlet(y_right),
        },
        higgs={
            "rep": "higgs_doublet",
            "potential": "mexican_hat",
            "params": {"lam": LAM, "v": V},
            "seed": encode_complex([0.0, 1.0]),
        },
        fermions={"rep_left": "lepton_left", "rep_right": "lepton_right"},
        yukawa={
            "tensor": encode_complex(tensor),
            "conjugate_higgs": [False, False],
        },
        lattice={"n": 1, "sites_per_dim": 4, "spacing": 1.0, "derivative": "fourier_spectral"},
        wilson={"theta": [[0.25], [0.0]]},
    )


REGISTRY = {"ew-reference": ew_reference}


def resolve_model(name_or_path):
    """A registry name or a path, read but not validated; registry names win over files."""
    if name_or_path in REGISTRY:
        return REGISTRY[name_or_path]()
    return read_model(name_or_path)
