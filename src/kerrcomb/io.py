"""The text layer: every CSV product of the package is the bytes of
`csv_text`, which formats integer, text and real columns byte for byte
as Python's % operator does, real columns through a numpy '%.12e'
kernel.  `cli.run_products` names the headers, comments and report
records and yields the files; the physics modules return arrays.
"""

from __future__ import annotations

import numpy as np

#: Decimal exponents the real-column kernel of `csv_text` formats itself.
_EXP_MAX = 280
#: 10**(12 - e) at _POW10[_EXP_MAX + 1 - e] for |e| <= _EXP_MAX + 1,
#: correctly rounded from exact integers (never from a libm pow).
_POW10 = np.array([float(10**k) if k >= 0 else 1 / 10**-k
                   for k in range(11 - _EXP_MAX, 14 + _EXP_MAX)])
_digits = np.zeros((1000, 4), np.uint8)
_digits[:, :3] = np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")
#: The three ASCII digits of 0..999 and a NUL, one little-endian word each.
_DIGITS3 = _digits.view("<u4").ravel()
_exps = np.arange(-_EXP_MAX - 1, _EXP_MAX + 3)
_exp_bytes = np.zeros((len(_exps), 8), np.uint8)
_exp_bytes[:, 0] = ord("e")
_exp_bytes[:, 1] = np.where(_exps < 0, ord("-"), ord("+"))
_exp_bytes[:, 4:] = _digits[abs(_exps)]
_exp_bytes[abs(_exps) < 100, 4] = 0     # two exponent digits at least
#: "e" and the sign of exponent e, and its digits, one word each, at
#: [e + _EXP_MAX + 1]: two 1-D tables, so each is one flat gather.
_EXP_SIGN, _EXP_DIGITS = _exp_bytes.view("<u4").T.copy()
#: Error bound of the kernel: y = fl(a * fl(10**k)) is two roundings of
#: at most u = 2**-53 relative each away from a 10**k, so
#: |y - a 10**k| <= (2u + u**2) a 10**k < 2.23e-3 of a last-digit unit
#: once y < 1e13.  log10 only picks k and never enters y, so the bound
#: holds however accurate libm is.  Where the fraction of y lies farther
#: than _BAND from 1/2, rint(y) is therefore the correctly rounded
#: 13-digit mantissa; where y lies within the bound of a decade edge
#: (1e12 or 1e13), either decade rounds to the same text.  Inside the
#: band Python's formatter decides.
_BAND = 3e-3


def _real_cells(x: np.ndarray) -> np.ndarray:
    """'%.12e' % v for each v of x, as NUL-padded rows of 28 bytes:
    sign, digit, '.', four groups of three digits, 'e', sign, exponent."""
    # a signalling NaN of a narrower float raises the invalid flag as it
    # widens; it stays a NaN, which Python formats below
    with np.errstate(invalid="ignore"):
        x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    ok = np.isfinite(a) & (a > 0)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    ok &= np.abs(e) <= _EXP_MAX
    e = np.minimum(np.maximum(e, -_EXP_MAX), _EXP_MAX)
    y = a * _POW10[_EXP_MAX + 1 - e]
    # a log10 one off near a power of ten puts y a decade out of range
    e += (y >= 1e13).astype(np.int64) - (y < 1e12)
    y = a * _POW10[_EXP_MAX + 1 - e]
    ok &= (y >= 1e12) & (y < 1e13) & (abs(y - np.floor(y) - 0.5) > _BAND)
    # rows left to Python hold 1e12, so no cast goes out of range
    m = np.rint(np.where(ok, y, 1e12)).astype(np.int64)
    carry = m == 10**13                 # 9.9999999999995e+k -> 1.0e+(k+1)
    m[carry] = 10**12
    e += carry
    q = [m // 10**k for k in (12, 9, 6, 3)] + [m]
    words = np.empty((len(x), 7), "<u4")
    words[:, 0] = ((x < 0) * ord("-") + (q[0] + ord("0") << 8)
                   + (ord(".") << 16))
    for j in range(4):
        words[:, 1 + j] = _DIGITS3[q[j + 1] - q[j] * 1000]
    e += _EXP_MAX + 1
    words[:, 5] = _EXP_SIGN[e]
    words[:, 6] = _EXP_DIGITS[e]
    out = words.view(np.uint8)
    bad = np.flatnonzero(~ok)
    cells = np.array([("%.12e" % v).encode() for v in x[bad].tolist()], "S28")
    out[bad] = cells.view(np.uint8).reshape(len(bad), 28)
    return out


def _cells(column: np.ndarray) -> np.ndarray:
    """The formatted cells of one column as NUL-padded byte rows."""
    if column.dtype.kind == "f":
        return _real_cells(column)
    spec = {"i": "%d", "u": "%d", "U": "%s", "O": "%s"}
    fmt = spec.get(column.dtype.kind, "%.12e")
    text = [(fmt % (v,)).encode() for v in column.tolist()]
    if b"\0" in b"".join(text):
        raise ValueError("csv_text: a text cell holds a NUL character")
    cells = np.array(text, "S")
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


def csv_text(header: str, columns: list,
             comment: str | None = None) -> bytes:
    """One product file, as bytes: an optional "# comment" line, the
    header, then a row per sample.  Integer columns print as %d, text as %s and real
    columns as %.12e, byte for byte as Python's % operator prints them.
    The header must name one field per column, and the columns must be
    1-D and of one length; otherwise ValueError names the header.

    Real columns go through a numpy kernel: the decimal exponent e comes
    from floor(log10|x|), the mantissa is rint(|x| 10**(12 - e)) with a
    correctly rounded power of ten, and e moves by one where that lands
    outside [1e12, 1e13) or rounds up to 1e13.  A value is handed to
    Python's '%.12e' instead when it is 0, not finite or beyond
    10**+-280, or when its scaled fraction lies within _BAND of 1/2,
    where the two roundings of the scaling could tip the last digit.
    Each column is a block of NUL-padded byte rows; the blocks are
    joined with ',' and '\\n' and the padding is dropped in one pass
    (a text cell holding a NUL character raises ValueError)."""
    columns = [np.asarray(c) for c in columns]
    fields = header.count(",") + 1
    if (len(columns) != fields or any(c.ndim != 1 for c in columns)
            or len({len(c) for c in columns}) != 1):
        raise ValueError(
            f"csv_text: header {header!r} names {fields} fields, but the "
            f"columns have shapes {[c.shape for c in columns]}: one 1-D "
            "column per field, all of one length, is needed")
    head = "" if comment is None else f"# {comment}\n"
    return _csv(head + header, [_cells(c) for c in columns])


def _csv(head: str, blocks: list) -> bytes:
    """`head`, then one row per sample of the column blocks of `_cells`,
    joined with ',' and without their NUL padding."""
    n = len(blocks[0])
    parts = [blocks[0]]
    for block in blocks[1:]:
        parts += [np.full((n, 1), ord(","), np.uint8), block]
    parts.append(np.full((n, 1), ord("\n"), np.uint8))
    rows = np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")
    return (head + "\n").encode() + rows
