import pytest

from smsl.sketch import _blas_threads


@pytest.fixture(autouse=True)
def restore_blas_threads():
    """numpy's BLAS thread count after each test as before it, so that a
    test that sets it through the handle leaks neither the count nor the
    bits and timings that follow from it."""
    handle = _blas_threads()
    count = handle and handle.get()
    yield
    if handle is not None:
        handle.set(count)


@pytest.fixture
def blas():
    """numpy's own BLAS thread-count handle, at 2 threads for the test;
    the test is skipped where the count cannot be set."""
    handle = _blas_threads()
    if handle is None:
        pytest.skip("numpy's BLAS thread count cannot be set")
    handle.set(2)
    return handle
