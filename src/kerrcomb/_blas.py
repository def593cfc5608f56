"""One OpenBLAS thread for the dense algebra of a run.

An above-threshold run factors matrices of order <= 258: Newton's LU at
2(K + 1), J_q's Schur form at 2K and the symmetric block's eigenvalues at
2K + 2, with K <= 128.  At these orders a second OpenBLAS thread costs
more than it gives, above all because numpy and scipy each bundle their
own OpenBLAS, and the two pools fight over the cores when calls
alternate.  Measured on 2 cores (numpy 2.4.6, scipy 1.17.1, random
matrices, median of 15 calls, two processes per count):

- `schur` at n = 256: 44-47 ms at 1 thread, 43-50 ms at 2;
- `schur` + `rsf2csf` at n = 256, then `np.linalg.eigvals` at n = 258:
  71-98 ms at 1 thread, 167-188 ms at 2;
- `schur` at n = 1024: 1.11-1.12 s at 1 thread, 0.95-1.21 s at 2, within
  noise, so no order a run factors calls for a second thread.

One thread also keeps the products independent of the host's thread
count, since the rounding of a threaded factorization follows how it
splits the work.

`one_thread()` sets every loaded OpenBLAS to one thread and restores each
recorded count on exit; `pin()` extends an open scope to a copy loaded
since (scipy's, at the first Schur form).  Outside a scope nothing is
touched, and where no OpenBLAS, no /proc or no thread symbols are found,
both do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
from collections.abc import Iterator
from pathlib import Path

#: (get, set) symbol names of the thread count, as bundled by numpy
#: (64-bit integers) and scipy, and as built by OpenBLAS itself.
SYMBOLS = [(f"{prefix}_get_num_threads{suffix}",
            f"{prefix}_set_num_threads{suffix}")
           for prefix in ("scipy_openblas", "openblas")
           for suffix in ("64_", "")]

#: Library path -> (setter, count before the scope) of every pool the
#: open scope has pinned; None outside a scope.  Process-wide, as the
#: thread counts it records are.
_pinned: dict[str, tuple] | None = None


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


def pin() -> None:
    """In an open scope, set every pool it has not pinned yet to one
    thread; outside a scope, do nothing."""
    if _pinned is None:
        return
    for path, (get, set_) in pools().items():
        if path not in _pinned:
            _pinned[path] = set_, get()
            set_(1)


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Scope in which every OpenBLAS runs one thread; each count is
    restored on exit, normal or not.  A nested scope leaves the counts
    to the outer one."""
    global _pinned
    if _pinned is not None:
        yield
        return
    _pinned = {}
    try:
        pin()
        yield
    finally:
        pinned, _pinned = _pinned, None
        for set_, count in pinned.values():
            set_(count)
