"""Property-style checks: every custom FFT backend matches numpy.fft.fft
within its declared tolerance, on power-of-two sizes (native kernels) and
non-power-of-two sizes (Bluestein chirp-z path). Fixed seeds, no
hypothesis dependency.

The split-radix backend is also pinned byte for byte to a recursive
even/odd oracle kept here: its stage loop must round exactly as the
recursion did, or every splitradix stack's fingerprint would change.
"""
import numpy as np
import pytest

from repro.webaudio.fft import (FFT_BACKENDS, FFTBackend, SplitRadixFFT,
                                _twiddles, get_fft_backend)

POW2_SIZES = [8, 32, 128, 512, 2048]
NON_POW2_SIZES = [3, 12, 100, 441, 1000]
CUSTOM_BACKENDS = [n for n in FFT_BACKENDS if n != "numpy"]


def _rel_error(got, ref):
    scale = np.max(np.abs(ref))
    return np.max(np.abs(got - ref)) / (scale if scale else 1.0)


@pytest.mark.parametrize("name", CUSTOM_BACKENDS)
@pytest.mark.parametrize("n", POW2_SIZES)
def test_pow2_matches_numpy(name, n):
    rng = np.random.default_rng(1234 + n)
    backend = get_fft_backend(name)
    for _ in range(3):
        x = rng.standard_normal(n)
        tol = max(backend.tolerance, 1e-12)
        assert _rel_error(backend.fft(x), np.fft.fft(x)) < tol


@pytest.mark.parametrize("name", CUSTOM_BACKENDS)
@pytest.mark.parametrize("n", NON_POW2_SIZES)
def test_non_pow2_matches_numpy_via_bluestein(name, n):
    rng = np.random.default_rng(4321 + n)
    backend = get_fft_backend(name)
    x = rng.standard_normal(n)
    tol = max(backend.tolerance, 1e-10) * 10  # chirp-z loses a digit
    assert _rel_error(backend.fft(x), np.fft.fft(x)) < tol


@pytest.mark.parametrize("name", CUSTOM_BACKENDS)
def test_complex_input(name):
    rng = np.random.default_rng(77)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    backend = get_fft_backend(name)
    assert _rel_error(backend.fft(x), np.fft.fft(x)) < 1e-9


@pytest.mark.parametrize("name", list(FFT_BACKENDS))
def test_linearity_and_impulse(name):
    """DFT properties that hold regardless of tolerance: delta -> flat ones,
    and the transform is linear."""
    backend = get_fft_backend(name)
    delta = np.zeros(64)
    delta[0] = 1.0
    assert np.allclose(backend.fft(delta), np.ones(64), atol=1e-9)

    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(64), rng.standard_normal(64)
    lhs = backend.fft(2.0 * a + 3.0 * b)
    rhs = 2.0 * backend.fft(a) + 3.0 * backend.fft(b)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_backends_bitwise_distinct():
    """The whole point of multiple backends: ulp-level divergence. The three
    custom kernels must NOT be bit-identical to numpy on a nontrivial input
    (if they were, stacks differing only in FFT backend would collide)."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2048)
    ref = np.fft.fft(x).tobytes()
    distinct = {ref}
    for name in CUSTOM_BACKENDS:
        distinct.add(get_fft_backend(name).fft(x).tobytes())
    assert len(distinct) >= 3


def test_unknown_backend_raises():
    with pytest.raises(KeyError):
        get_fft_backend("fftw-4.0")


def test_empty_input():
    for name in FFT_BACKENDS:
        assert get_fft_backend(name).fft(np.zeros(0)).shape == (0,)


def _fft_recursive(x: np.ndarray) -> np.ndarray:
    """Recursive radix-2 decimation in time, ``twiddle * odd`` at every
    level: the split-radix backend's reference semantics."""
    n = x.shape[-1]
    if n == 1:
        return x.astype(np.complex128)
    if n == 2:
        even = x[..., 0::2].astype(np.complex128)
        t = _twiddles(2) * x[..., 1::2].astype(np.complex128)
        return np.concatenate([even + t, even - t], axis=-1)
    even = _fft_recursive(x[..., ::2])
    odd = _fft_recursive(x[..., 1::2])
    t = _twiddles(n) * odd
    return np.concatenate([even + t, even - t], axis=-1)


class _RecursiveOracle(FFTBackend):
    """The oracle core under the shared Bluestein wrapper."""

    def _fft_pow2(self, x):
        return _fft_recursive(np.asarray(x, dtype=np.complex128))


SPLITRADIX = SplitRadixFFT()
ORACLE = _RecursiveOracle()
POW2_ALL = [1 << k for k in range(14)]  # 1 ... 8192
LEADS = [(), (1,), (3,), (17,), (3, 5)]


def _bytes(z):
    return np.ascontiguousarray(z).tobytes()


class TestSplitRadixMatchesRecursiveOracle:
    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @pytest.mark.parametrize("n", POW2_ALL)
    def test_real_and_complex_inputs(self, n, lead):
        rng = np.random.default_rng(n * 31 + len(lead))
        x = rng.standard_normal(lead + (n,))
        z = x + 1j * rng.standard_normal(lead + (n,))
        for inp in (x, z):
            assert _bytes(SPLITRADIX.fft(inp)) == _bytes(ORACLE.fft(inp))

    @pytest.mark.parametrize("n", [64, 2048])
    def test_wide_batch(self, n):
        x = np.random.default_rng(n).standard_normal((128, n))
        assert _bytes(SPLITRADIX.fft(x)) == _bytes(ORACLE.fft(x))

    @pytest.mark.parametrize("n", [3, 100, 441, 1000])
    def test_bluestein_sizes(self, n):
        x = np.random.default_rng(n).standard_normal((4, n))
        assert _bytes(SPLITRADIX.fft(x)) == _bytes(ORACLE.fft(x))

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @pytest.mark.parametrize("n", [2, 4, 8, 64, 1024, 8192])
    def test_overflow_inf_and_nan_inputs(self, n, lead):
        rng = np.random.default_rng(n + 7 * len(lead))
        shape = lead + (n,)
        base = rng.standard_normal(shape)
        # finite inputs whose butterfly sums overflow, then all-NaN input
        inputs = [np.clip(base, -1.7, 1.7) * 1e308, np.full(shape, np.nan)]
        for special in (np.nan, np.inf, -np.inf):
            x = base.copy()
            x.flat[rng.integers(x.size)] = special
            inputs.append(x)
        with np.errstate(all="ignore"):
            for x in inputs:
                assert _bytes(SPLITRADIX.fft(x)) == _bytes(ORACLE.fft(x))

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @pytest.mark.parametrize("n", [8, 256, 2048])
    def test_colliding_infinities(self, n, lead):
        """+inf and -inf meeting in one butterfly make NaN + NaN; the
        sign bit of that NaN follows numpy's choice of inner loop (SIMD
        body or scalar tail), which differs between the two layouts.
        Every value matches and NaN lands in the same places."""
        x = np.random.default_rng(n).standard_normal(lead + (n,))
        x.flat[::7] = np.inf
        x.flat[3::11] = np.nan
        x.flat[5::13] = -np.inf
        with np.errstate(all="ignore"):
            got, want = SPLITRADIX.fft(x), ORACLE.fft(x)
        np.testing.assert_array_equal(got, want)
        numbers = ~np.isnan(want)
        assert _bytes(got[numbers]) == _bytes(want[numbers])
