"""Property tests over generated inputs (Hypothesis, derandomized)."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossmesh import (
    LOSSLESS,
    LossModel,
    build_svd_clements,
    build_topology,
    design_splitters,
    evaluate_svd_clements,
    fidelity,
    transmission_matrix,
)
from crossmesh.crossbar import XbarDevice

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_pairs(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    a = draw(arrays(np.float64, shape, elements=entries)) + 1j * draw(arrays(np.float64, shape, elements=entries))
    b = draw(arrays(np.float64, shape, elements=entries)) + 1j * draw(arrays(np.float64, shape, elements=entries))
    return a, b


nonzero_factors = st.builds(
    lambda mag, angle: mag * complex(math.cos(angle), math.sin(angle)),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 2.0 * math.pi),
)


@PROPERTY
@given(matrix_pairs(), nonzero_factors, nonzero_factors)
def test_fidelity_in_unit_interval_and_scale_invariant(pair, c1, c2):
    a, b = pair
    assume(np.vdot(a, a).real > 1e-6 and np.vdot(b, b).real > 1e-6)
    base = fidelity(a, b)
    assert 0.0 <= base <= 1.0 + 1e-12
    assert abs(fidelity(c1 * a, b) - base) <= 1e-9
    assert abs(fidelity(a, c2 * b) - base) <= 1e-9
    assert abs(fidelity(c1 * a, c2 * b) - base) <= 1e-9


@PROPERTY
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_lossless_svd_device_reproduces_random_target(n, seed):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = evaluate_svd_clements(build_svd_clements(target, LOSSLESS))
    assert fidelity(y, target) > 1 - 1e-9
    # up to one positive scalar, the device is the target itself
    k = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    scale = y[k] / target[k]
    assert abs(scale.imag) <= 1e-9 * abs(scale) and scale.real > 0
    assert np.max(np.abs(y / scale - target)) <= 1e-8 * np.max(np.abs(target))


db = st.floats(0.0, 3.0)


@PROPERTY
@given(
    st.integers(2, 64),
    st.integers(2, 16),
    st.builds(LossModel, il_coup_db=db, il_ps_db=db, il_xi_db=db, il_x_db=db, alpha_db=db),
)
def test_design_splitters_equalises_every_column(n, m, loss):
    topology = build_topology(n, m)
    xi, t = design_splitters(topology, loss)
    device = XbarDevice(topology=topology, weights=np.ones((n, m)), xi=xi, t=t,
                        loss=loss, balanced=True)
    p = transmission_matrix(device)
    assert np.all(p > 0.0)
    assert (p.max() - p.min()) / p.max() < 1e-12
