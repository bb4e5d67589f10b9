"""Property tests of the dense spectrum's chirality split: for any operator
whose i*op is odd under some grading of the fiber slots, the split's
+-svd spectrum agrees with the full Hermitized eigensolve, and an operator
with no such grading takes the full eigensolve."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fermimass import TorusLattice, spectrum
from fermimass.lattice_dirac import LatticeOperator, _chirality

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def odd_patterns(draw):
    """(L, colours, couplings, site pairs, seed, scale): the + class of each
    fiber slot, which (+, -) slot pairs and which site pairs may be
    nonzero, and the seed and magnitude of the entries."""
    L = draw(st.sampled_from([1, 2]))
    colours = np.array(draw(st.lists(st.booleans(), min_size=1, max_size=6)))
    F, S = colours.size, L * L
    couplings = draw(arrays(bool, (F, F))) & colours[:, None] & ~colours[None, :]
    pairs = draw(arrays(bool, (S, S)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return L, colours, couplings, pairs, seed, scale


def odd_hermitian(L, colours, couplings, pairs, seed, scale):
    """A Hermitian H on n=1, L whose nonzero entries all couple a + slot to a
    - slot at an allowed site pair."""
    S, F = L * L, colours.size
    rng = np.random.default_rng(seed)
    vals = scale * (rng.standard_normal((S, F, S, F)) + 1j * rng.standard_normal((S, F, S, F)))
    upper = np.where(pairs[:, None, :, None] & couplings[None, :, None, :], vals, 0.0)
    upper = upper.reshape(S * F, S * F)
    return upper + upper.conj().T


def operator(H, L):
    """The operator op with i*op = H, one spinor component per site."""
    return LatticeOperator.from_matrix(-1j * H, TorusLattice(n=1, L=L), 1, H.shape[0] // (L * L))


def hermitized_eigvalsh(op):
    H = 1j * op.matrix
    return np.linalg.eigvalsh(0.5 * (H + H.conj().T))


def _case(colours, couplings, pairs, L=2, seed=1):
    return L, np.array(colours), np.array(couplings, dtype=bool), np.array(pairs, dtype=bool), seed, 1.0


ALL_ZERO = _case([True, False, True], np.zeros((3, 3)), np.zeros((4, 4)))
# three + slots against one - slot; slot 2 couples to nothing
UNEQUAL_ISOLATED = _case([True, True, True, False],
                         [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
                         np.ones((4, 4)))
# only sites 0 and 3 couple, so every other site block is zero
ZERO_BLOCKS = _case([True, False, False, True, False],
                    [[0, 1, 1, 0, 1], [0] * 5, [0] * 5, [0, 1, 0, 0, 1], [0] * 5],
                    [[1, 0, 0, 1], [0] * 4, [0] * 4, [1, 0, 0, 0]])


@PROPERTY
@given(odd_patterns())
@example(ALL_ZERO)
@example(UNEQUAL_ISOLATED)
@example(ZERO_BLOCKS)
def test_odd_spectrum_matches_the_full_eigensolve(case):
    L = case[0]
    op = operator(odd_hermitian(*case), L)
    assert _chirality(op) is not None
    want = hermitized_eigvalsh(op)
    scale = max(1.0, float(np.abs(op.matrix).max()))
    got = spectrum(op)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * scale
    got_sq = spectrum(op, square_first=True)
    assert np.abs(got_sq - np.sort(want ** 2)).max() <= 1e-12 * scale ** 2


@PROPERTY
@given(odd_patterns(), st.sampled_from([1, 3]))
@example(ALL_ZERO, 1)
@example(UNEQUAL_ISOLATED, 3)
def test_odd_cycle_takes_the_full_eigensolve(case, cycle):
    # an odd cycle among the slots of site 0 (a nonzero diagonal entry when
    # cycle == 1) leaves no grading under which the operator is odd
    L, colours = case[0], case[1]
    if colours.size < cycle:
        cycle = 1
    H = odd_hermitian(*case)
    w = case[5] * (1.0 + 0.5j)
    for f in range(cycle):
        g = (f + 1) % cycle
        H[f, g] += w
        H[g, f] += np.conj(w)
    op = operator(H, L)
    assert _chirality(op) is None
    want = hermitized_eigvalsh(op)
    assert np.array_equal(spectrum(op), want)
    assert np.array_equal(spectrum(op, square_first=True), np.sort(want ** 2))


def test_one_sided_rounding_entry_keeps_the_split():
    # i*op couples slot 1 to slot 0 but not back, within the Hermiticity
    # tolerance; the coupling graph is undirected, so a grading is found
    H = np.zeros((2, 2), dtype=complex)
    H[1, 0] = 1e-14
    op = operator(H, 1)
    assert np.array_equal(_chirality(op), [True, False])
    assert np.abs(spectrum(op) - hermitized_eigvalsh(op)).max() <= 1e-28
