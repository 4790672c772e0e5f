"""Analytic gradients against central finite differences."""

import pytest

from virconv import ActivationSpec, KernelWeights, SeededRng, SpconvWeights
from virconv.oracle import GRAD_TOL, MIN_CHECKED_SHARE, gradcheck
from conftest import corrupt_conv3d_gradient, random_h2d, random_tensor

LEAKY = ActivationSpec("leaky_relu", 0.1)


def setup_case(op, seed=0, extent=(6, 6, 6), c_in=3, c_out=4):
    rng = SeededRng(seed)
    t = random_tensor(rng, extent=extent, occupancy=0.3, c=c_in)
    h2d = random_h2d(rng, t.n, span=4, invalid_frac=0.1)
    if op == "spconv":
        w = SpconvWeights.initialize(c_in, c_out, rng)
    else:
        w = KernelWeights.initialize(c_in, c_out, rng)
    return t, h2d, w, rng


@pytest.mark.parametrize("op", ["conv3d", "conv2d", "nrconv", "spconv"])
def test_gradients_match_finite_differences(op):
    t, h2d, w, rng = setup_case(op)
    err, checked, skipped = gradcheck(op, t, h2d, w, LEAKY, rng, num_probes=40)
    assert checked + skipped == 40 and checked >= MIN_CHECKED_SHARE * 40
    assert err < 1e-6, f"{op}: max relative error {err:.3e}"


def test_gradcheck_detects_corrupted_gradient(monkeypatch):
    corrupt_conv3d_gradient(monkeypatch)
    t, h2d, w, rng = setup_case("conv3d", seed=3)
    err, checked, _ = gradcheck("conv3d", t, h2d, w, LEAKY, rng, num_probes=40)
    assert checked > 0 and err > GRAD_TOL


@pytest.mark.parametrize("op", ["conv3d", "nrconv"])
def test_gradients_with_identity_activation(op):
    t, h2d, w, rng = setup_case(op, seed=11)
    err, checked, skipped = gradcheck(op, t, h2d, w, ActivationSpec("identity"), rng,
                                      num_probes=30)
    # The identity has no kink, so no probe may be skipped.
    assert (checked, skipped) == (30, 0)
    assert err < 1e-6


def test_gradcheck_rejects_unknown_op():
    t, h2d, w, rng = setup_case("conv3d")
    with pytest.raises(KeyError):
        gradcheck("conv9d", t, h2d, w, LEAKY, rng)
