"""One OpenBLAS thread for the dense algebra of a run.

An above-threshold run factors matrices of order <= 258: Newton's LU at
2(K + 1), J_q's eigendecomposition at 2K and the symmetric block's
eigenvalues at 2K + 2, with K <= 128.  At these orders a second OpenBLAS
thread gives nothing.  Measured on 2 cores (numpy 2.4.6, random matrices,
median of 15 calls, three processes per count):

- `np.linalg.eig` at n = 256: 37-55 ms at 1 thread, 41-60 ms at 2;
- `eig` and `inv` at n = 256, then `eigvals` at n = 258, as one state's
  linearization (no SVD: `linearization._vacuum_gram` bounds cond_2(V)
  by norms): 104-113 ms at 1 thread, 109-123 ms at 2;
- `eig` at n = 1024: 1.08-1.39 s at 1 thread, 1.20-1.47 s at 2, so no
  order a run factors calls for a second thread.

One thread also keeps the products independent of the host's thread
count, since the rounding of a threaded factorization follows how it
splits the work.

`pool()` finds the OpenBLAS that `np.linalg` calls through numpy itself:
symbols looked up in the handle of `numpy.linalg._umath_linalg` resolve
in that extension's own dependencies.  `one_thread()` sets that one
count to 1 and restores it on exit.  Where the module or the thread
symbols are missing, it does nothing.
"""

from __future__ import annotations

import contextlib
import functools
from collections.abc import Iterator

#: (get, set) symbol names of the thread count, as bundled by numpy
#: (`scipy_openblas`, 64-bit integers) and as built by OpenBLAS itself.
SYMBOLS = [(f"{prefix}_get_num_threads{suffix}",
            f"{prefix}_set_num_threads{suffix}")
           for prefix in ("scipy_openblas", "openblas")
           for suffix in ("64_", "")]


@functools.cache
def pool() -> tuple | None:
    """(get, set) thread-count functions of the OpenBLAS that `np.linalg`
    calls, or None where none is found."""
    import ctypes

    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for names in SYMBOLS:
        get, set_ = (getattr(lib, name, None) for name in names)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Scope in which numpy's OpenBLAS runs one thread; its count is
    restored on exit, normal or not.  A nested scope records 1 and
    restores 1."""
    found = pool()
    if found is None:
        yield
        return
    get, set_ = found
    count = get()
    try:
        set_(1)
        yield
    finally:
        set_(count)
