"""Unit tests for the pluggable array-backend registry."""

import numpy as np
import pytest

from repro.backend import (
    DEFAULT_RTOL,
    ArrayBackend,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
    resolve_backend,
    using_backend,
)


class TestRegistry:
    def test_numpy_backends_always_available(self):
        names = available_backends()
        assert "numpy64" in names
        assert "numpy32" in names
        assert names == tuple(sorted(names))

    def test_default_is_canonical_numpy64(self):
        backend = default_backend()
        assert backend.name == "numpy64"
        assert backend.canonical
        assert backend.float_dtype is np.float64

    def test_numpy32_is_tolerance_gated(self):
        backend = get_backend("numpy32")
        assert not backend.canonical
        assert backend.float_dtype is np.float32

    def test_unknown_backend_names_the_available_ones(self):
        with pytest.raises(KeyError, match="numpy64"):
            get_backend("no-such-backend")

    def test_register_is_idempotent_by_name(self):
        custom = ArrayBackend(name="numpy64", xp=np, float_dtype=np.float64, canonical=True)
        register_backend(custom)
        assert get_backend("numpy64") is custom
        # restore the original instance for other tests
        register_backend(default_backend())


class TestResolve:
    def test_none_resolves_to_current_default(self):
        assert resolve_backend(None).name == "numpy64"

    def test_name_resolves(self):
        assert resolve_backend("numpy32").name == "numpy32"

    def test_instance_passes_through(self):
        backend = get_backend("numpy32")
        assert resolve_backend(backend) is backend

    def test_using_backend_overrides_none(self):
        with using_backend("numpy32"):
            assert resolve_backend(None).name == "numpy32"
        assert resolve_backend(None).name == "numpy64"

    def test_using_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with using_backend("numpy32"):
                raise RuntimeError("boom")
        assert resolve_backend(None).name == "numpy64"


class TestTolerance:
    def test_canonical_backend_is_exact(self):
        assert default_backend().tolerance("torus_distance") == 0.0
        assert default_backend().tolerance("anything") == 0.0

    def test_numpy32_declares_per_kernel_rtol(self):
        backend = get_backend("numpy32")
        assert backend.tolerance("torus_distance") == pytest.approx(1e-5)
        assert backend.tolerance("contact_probability") == pytest.approx(1e-4)
        assert backend.tolerance("scheme_rate") == pytest.approx(1e-3)

    def test_unlisted_kernel_falls_back_to_default_rtol(self):
        backend = get_backend("numpy32")
        assert backend.tolerance("brand-new-kernel") == pytest.approx(DEFAULT_RTOL)


class TestDtypePolicy:
    def test_asarray_casts_to_backend_dtype(self):
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = get_backend("numpy32").asarray(data)
        assert out.dtype == np.float32
        out64 = default_backend().asarray(data.astype(np.float32))
        assert out64.dtype == np.float64

    def test_from_device_returns_numpy(self):
        data = np.ones((2, 2))
        assert isinstance(get_backend("numpy32").from_device(data), np.ndarray)


class TestOptionalBackends:
    """No GPU/tensor backend is registered without its library."""

    def test_unavailable_optionals_not_listed(self):
        names = available_backends()
        for optional in ("cupy", "torch"):
            try:
                __import__(optional)
            except ImportError:
                assert optional not in names
