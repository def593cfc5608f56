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

`one_thread()` imports numpy, sets every loaded OpenBLAS to one thread
and restores each recorded count on exit.  numpy's OpenBLAS is the only
one a run loads, so the one scan at entry sees every pool.  Where no
OpenBLAS, no /proc or no thread symbols are found, it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
from collections.abc import Iterator
from pathlib import Path

#: (get, set) symbol names of the thread count, as bundled by numpy
#: (`scipy_openblas`, 64-bit integers) and as built by OpenBLAS itself.
SYMBOLS = [(f"{prefix}_get_num_threads{suffix}",
            f"{prefix}_set_num_threads{suffix}")
           for prefix in ("scipy_openblas", "openblas")
           for suffix in ("64_", "")]


def pools() -> dict[str, tuple]:
    """(get, set) thread-count functions of every OpenBLAS mapped into
    this process, by path."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return {}
    paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    found = {}
    for path in sorted(path for path in paths if path.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in SYMBOLS:
            get, set_ = (getattr(lib, name, None) for name in names)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found[path] = get, set_
                break
    return found


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Scope in which every OpenBLAS runs one thread; each count is
    restored on exit, normal or not.  A nested scope records 1 and
    restores 1."""
    import numpy  # noqa: F401  (maps numpy's OpenBLAS before the scan)

    pinned = [(set_, get()) for get, set_ in pools().values()]
    try:
        for set_, _ in pinned:
            set_(1)
        yield
    finally:
        for set_, count in pinned:
            set_(count)
