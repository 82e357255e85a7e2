"""The batched stage IX coefficient setup is bit-identical to one oscillator at a time."""

import numpy as np
import pytest
from scipy.signal import lfilter

from repro.errors import SignalError
from repro.spectra.response import (
    DEFAULT_DAMPINGS,
    ResponseSpectrumConfig,
    default_periods,
    paper_grid,
    response_spectrum_nigam_jennings,
    sdof_coefficients,
)


def reference_coefficients(period, damping, dt):
    """One oscillator's (A, B0, B1), computed on its own."""
    w = 2.0 * np.pi / period
    wd = w * np.sqrt(1.0 - damping * damping)
    e = np.exp(-damping * w * dt)
    s = np.sin(wd * dt)
    c = np.cos(wd * dt)
    a11 = e * (c + damping * w * s / wd)
    a12 = e * s / wd
    a21 = -e * w * w * s / wd
    a22 = e * (c - damping * w * s / wd)
    A = np.array([[a11, a12], [a21, a22]])
    F = np.array([[0.0, 1.0], [-w * w, -2.0 * damping * w]])
    Finv = np.linalg.inv(F)
    eye = np.eye(2)
    M0 = Finv @ (A - eye)
    M1 = M0 - Finv @ A + (Finv @ Finv @ (A - eye)) / dt
    return A, (M0 - M1)[:, 1], M1[:, 1]


def reference_spectrum(acc, dt, config):
    """Per-oscillator Nigam-Jennings spectrum: coefficients, taps and
    initial states set up inside the loop, one oscillator at a time."""
    acc = np.asarray(acc, dtype=float)
    n_d, n_t = len(config.dampings), config.periods.size
    sd, sv, sa = np.empty((n_d, n_t)), np.empty((n_d, n_t)), np.empty((n_d, n_t))
    p = -acc
    for di, zeta in enumerate(config.dampings):
        for ti, period in enumerate(config.periods):
            A, B0, B1 = reference_coefficients(period, zeta, dt)
            tr = A[0, 0] + A[1, 1]
            det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            den = np.array([1.0, -tr, det])
            num_x = np.array([
                B1[0],
                B0[0] + A[0, 1] * B1[1] - A[1, 1] * B1[0],
                A[0, 1] * B0[1] - A[1, 1] * B0[0],
            ])
            num_v = np.array([
                B1[1],
                B0[1] + A[1, 0] * B1[0] - A[0, 0] * B1[1],
                A[1, 0] * B0[0] - A[0, 0] * B0[1],
            ])
            zi_x = p[0] * np.array([-B1[0], A[1, 1] * B1[0] - A[0, 1] * B1[1]])
            zi_v = p[0] * np.array([-B1[1], A[0, 0] * B1[1] - A[1, 0] * B1[0]])
            x, _ = lfilter(num_x, den, p, zi=zi_x)
            v, _ = lfilter(num_v, den, p, zi=zi_v)
            w = 2.0 * np.pi / period
            ta = -2.0 * zeta * w * v - w * w * x
            sd[di, ti] = np.max(np.abs(x))
            if config.pseudo:
                sv[di, ti] = w * sd[di, ti]
                sa[di, ti] = w * w * sd[di, ti]
            else:
                sv[di, ti] = np.max(np.abs(v))
                sa[di, ti] = np.max(np.abs(ta))
    return sa, sv, sd


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("dt", [0.005, 0.01, 0.0125, 0.02])
@pytest.mark.parametrize("periods", [default_periods(), paper_grid().periods], ids=["default", "paper"])
def test_batched_coefficients_equal_one_at_a_time(periods, dt):
    grid_t = np.tile(periods, len(DEFAULT_DAMPINGS))
    grid_z = np.repeat(np.asarray(DEFAULT_DAMPINGS), periods.size)
    A, B0, B1 = sdof_coefficients(grid_t, grid_z, dt)
    assert A.shape == (grid_t.size, 2, 2) and B0.shape == B1.shape == (grid_t.size, 2)
    for k, (period, zeta) in enumerate(zip(grid_t, grid_z.tolist())):
        ref = reference_coefficients(period, zeta, dt)
        for got, want in zip((A[k], B0[k], B1[k]), ref):
            assert np.array_equal(bits(got), bits(want)), (period, zeta, dt)


def test_scalar_call_is_a_size_one_batch():
    A, B0, B1 = sdof_coefficients(1.5, 0.05, 0.01)
    assert (A.shape, B0.shape, B1.shape) == ((2, 2), (2,), (2,))
    for got, want in zip((A, B0, B1), reference_coefficients(1.5, 0.05, 0.01)):
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize(
    "args", [(0.0, 0.05, 0.01), (1.0, 0.05, 0.0), (1.0, 1.0, 0.01), (1.0, np.nan, 0.01),
             (np.array([1.0, -1.0]), 0.05, 0.01), (1.0, np.array([0.05, -0.1]), 0.01)]
)
def test_invalid_oscillators_rejected(args):
    with pytest.raises(SignalError):
        sdof_coefficients(*args)


@pytest.mark.parametrize("pseudo", [False, True])
def test_spectrum_equals_per_oscillator_setup(pseudo):
    rng = np.random.default_rng(1969)
    acc = rng.normal(size=3000) * np.hanning(3000) * 150.0
    config = ResponseSpectrumConfig(periods=default_periods(), pseudo=pseudo)
    got = response_spectrum_nigam_jennings(acc, 0.01, config)
    for name, want in zip(("sa", "sv", "sd"), reference_spectrum(acc, 0.01, config)):
        assert np.array_equal(bits(getattr(got, name)), bits(want)), name
