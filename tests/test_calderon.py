import math

import numpy as np
import pytest
from scipy.integrate import quad

from fourierineq.calderon import (Cells, dominates, phi, psi,
                                  verify_joint_type)
from fourierineq.extremal import dft, random_band_limited, step_profile
from fourierineq.pieces import StepFunction
from fourierineq.rearrange import star

from conftest import random_cells


def test_psi_closed_form():
    # F = 2 on (0,1]: F* = F, Psi(x) = 4 min(x, 1)
    F = StepFunction.from_cells([0, 1], [2.0])
    assert psi(F, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert psi(F, 1.5) == pytest.approx(4.0, abs=1e-12)


def test_phi_closed_form():
    # G = 3 on (0,1]: inner integral over (0, 1/t) is 3 min(1/t, 1),
    # Phi(x) = int_0^x (3 min(1/t,1))^2 dt = 9x for x <= 1, 18 - 9/x beyond
    G = StepFunction.from_cells([0, 1], [3.0])
    assert phi(G, 0.5) == pytest.approx(4.5, abs=1e-10)
    assert phi(G, 2.0) == pytest.approx(13.5, rel=1e-9)


def test_phi_matches_quadrature(rng):
    G = random_cells(rng, max_cells=6)
    Gs = star(G)

    def inner(t):
        return Gs.integrate(0.0, 1.0 / t).value

    for x in [0.3, 1.0, 4.0]:
        ref = quad(lambda t: inner(t) ** 2, 0.0, x, limit=200)[0]
        assert phi(G, x) == pytest.approx(ref, rel=1e-7)


def test_self_domination_scaling():
    # Psi_F(x) <= K^2 Phi_F(x) holds with a moderate K for a plain box
    F = StepFunction.from_cells([0, 1], [1.0])
    cert = dominates(F, F)
    assert cert.bestK <= 1.0 + 1e-9
    assert cert.dominated


def test_domination_fails_when_scaled_up():
    F = StepFunction.from_cells([0, 1], [10.0])
    G = StepFunction.from_cells([0, 1], [1.0])
    cert = dominates(F, G)
    assert not cert.dominated
    assert cert.bestK > 1.0
    # and the certificate is a true witness: Psi > bestK^2-tol * Phi there
    assert cert.psi_at == pytest.approx(cert.bestK ** 2 * cert.phi_at,
                                        rel=1e-6)


def test_domination_monotone_in_scale():
    F = StepFunction.from_cells([0, 1], [1.0])
    k1 = dominates(F.scaled(1.0), F).bestK
    k2 = dominates(F.scaled(2.0), F).bestK
    assert k2 == pytest.approx(2.0 * k1, rel=1e-9)


def test_joint_type_on_band_limited_sample():
    rng = np.random.default_rng(7)
    sigs = [random_band_limited(rng, N=1024, L=32.0) for _ in range(5)]
    cert = verify_joint_type(sigs)
    assert math.isfinite(cert.bestK) and cert.bestK > 0
    # the transform really is of joint strong type: K stays O(1)
    assert cert.bestK < 3.0


def test_joint_type_needs_signals():
    with pytest.raises(ValueError):
        verify_joint_type([])


def test_psi_with_tied_levels():
    # F* = 2 on (0, 2], 1 on (2, 4]: Psi(3) = 4 * 2 + 1 * 1
    F = StepFunction.from_cells([0, 1, 2, 3, 4], [2.0, 1.0, 2.0, 1.0])
    assert psi(F, 3.0) == 9.0
    assert psi(F, 10.0) == 10.0


def test_cell_psi_matches_step_calculus(rng):
    # the array path against star + pow_compose + cumulative on the pieces
    for _ in range(20):
        F = random_cells(rng, max_cells=8)
        ref = star(F).pow_compose(2.0).cumulative()
        for x in [1e-3, 0.7, 2.5, 9.0, 50.0]:
            assert psi(F, x) == pytest.approx(ref(x), rel=1e-13, abs=0)


def test_joint_type_pinned_on_one_signal():
    sig = random_band_limited(np.random.default_rng(11), N=4096, L=64.0)
    cert = verify_joint_type([sig])
    assert cert.bestK == pytest.approx(0.6175305536913628, rel=1e-12)
    assert cert.dominated
    # the certificate carries the public Psi and Phi at its argmax
    F, G = step_profile(dft(sig)), step_profile(sig)
    assert cert.psi_at == psi(F, cert.argmax_x)
    assert cert.phi_at == phi(G, cert.argmax_x)
    assert cert.bestK == pytest.approx(
        math.sqrt(cert.psi_at / cert.phi_at), rel=1e-15)
    # StepFunction input reaches the same cells
    assert dominates(F, G) == cert


def test_not_dominated_reports_first_failing_x():
    # Phi of a zero G vanishes while Psi_F > 0 at every x > 0, so the scan
    # stops at its first point, min(knots) * 1e-6 with knots {1/2, 1, 2, 3}
    F = StepFunction.from_cells([0, 1, 3], [2.0, 1.0])
    G = StepFunction.from_cells([0, 2], [0.0])
    for f, g in [(F, G), (Cells(np.array([0.0, 1.0, 3.0]),
                                np.array([2.0, 1.0])),
                          Cells(np.array([0.0, 2.0]), np.array([0.0])))]:
        cert = dominates(f, g)
        assert not cert.dominated and cert.bestK == math.inf
        assert cert.argmax_x == 0.5e-6
        assert cert.psi_at == psi(F, 0.5e-6) > 0.0
        assert cert.phi_at == 0.0
