"""The CSV text of numpy columns: one block of rows at a time, every float
exactly as ``%.17g`` prints it.

numpy builds the floats that ``%.17g`` prints in fixed notation as dense
24-byte fields, their digits exact by Dekker's two-product
(``_fixed_fields``), and one ``bytes.translate`` turns a block's fields into
its text; ``%`` formats the integers and the floats in exponent notation.
A block builds its arrays in the slots of a :class:`~ioulab.batch.Scratch`
that every block of a file reuses, so that a block after the first
allocates nothing of its size: made afresh, a block's 25 temporaries
(about 1 MB at 372 rows of 11 columns) left the heap top free after every
block in some heap layouts, and glibc trimmed it and faulted it back in on
the next.
``cli._csv`` loads this module with a command's first CSV, so that ``eval``
never compiles it and ``sim`` and ``sweep`` compile it after their memory
peak.
"""

from __future__ import annotations

import functools

import numpy as np

from .batch import Scratch

# numpy writes a block's floats into fields of _FIELD bytes, one per value: the
# separator before it, a sign, two bytes for the start of a small value's
# "0.000", then the 20 digits of N' (see _fixed_fields) in five 4-digit groups,
# trailing zeros as NUL. A mark by exponent and sign is ORed over each field;
# in the text, _PRINT maps what that makes and the NULs and _DROP bytes vanish.
# 0x40 on an integer digit prints it, or 0 on its NUL; 0x1E on a 0 prints the
# dot, and alone (the put-in 0 is NUL where no fraction follows) nothing; 0x80
# on a leading 0 prints nothing.
_FIELD = 24
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_PRINT = bytes.maketrans(b"@pqrstuvwxy>", b"00123456789.")  # 0x40 | NUL or a digit, 0x1E | "0"
_DROP = b"\0\x1e\x80\xb0"


@functools.cache  # built on the first write, not at import
def _tables() -> tuple[np.ndarray, ...]:
    """By frexp's binary exponent e + 14: j = 16 - X for the larger decimal
    exponent X that e allows, and the double 10**X. By j: the exact double 10**j
    and its two halves, and 9 * 10**j (0 for X < 0). The 4-digit groups in
    ASCII, row 10,000 + i the same with its trailing zeros as NUL. By
    2 * j + negative: the marks."""
    xs = np.arange(-14, 58) * 1233 >> 12  # floor(e * log10(2)), 1233 / 4096 ~ log10(2)
    p = np.array([float(10**j) for j in range(21)])
    hi = p * _SPLIT - (p * _SPLIT - p)
    nines = np.array([9 * 10**j * (j < 17) for j in range(21)])
    i = np.arange(10_000, dtype=np.uint16)[:, None]  # uint16 keeps the build small
    scale = np.array([1000, 100, 10, 1], np.uint16)
    full = i // scale % 10 + 48
    digits = np.concatenate([full, np.where(i % (10 * scale) == 0, 0, full)]).astype(np.uint8)
    marks = np.zeros((21, 2, _FIELD), np.uint8)
    marks[..., :2] = np.frombuffer(b",\0,-", np.uint8).reshape(2, 2)  # separator, sign
    marks[..., 4:6] = 0x80
    for m, x in zip(marks, range(16, -5, -1)):
        if x < 0:  # "0." then -x - 1 zeros, up to byte 6
            m[:, 6 + x : 7] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
            m[:, 4:7] ^= ord("0")  # over N's leading zeros: "0" stays "0", the dot is 0x1E | "0"
        else:  # the integer digits, then the put-in 0
            m[:, 6 : 8 + x] = [0x40] * (x + 1) + [0x1E]
    return (16 - xs, np.array([float(f"1e{x}") for x in xs]), np.stack([p, hi, p - hi]), nines,
            digits.view(np.uint32).ravel(), marks.reshape(42, _FIELD).view(np.uint64))


def _fixed_fields(a: np.ndarray, negative: np.ndarray, zero: np.ndarray, other: np.ndarray,
                  fields: np.ndarray, scratch: Scratch) -> None:
    """Write ``%.17g`` of each value ``a`` (overwritten) that is not ``other``
    (overwritten) into its row of ``fields``: each value of decimal exponent X
    in -4..16, and 0. ``negative`` is -1 where the value's sign bit is set,
    else 0, and ``zero`` is where ``a`` is 0. The temporaries are slots of
    ``scratch``, started at ``a.size`` columns.

    Such a value prints the 17 digits of N = a * 10**j, j = 16 - X, rounded
    half to even. 10**j is an exact double, so Dekker's two-product gives the
    exact product as p + e; p >= 1e16 > 2**53 is an even integer, so
    N = p + rint(e), and no double below 1e17 rounds up to the next power of
    ten. Nor does a double round up to the next integer at 17 digits, so the
    first X + 1 digits of N are floor(a), and N' = N + 9 * 10**j * floor(a)
    is N with a 0 put in after them, where the dot goes.

    No step adds a bool to an int, broadcasts a block against another block
    or against a column, or takes with mode "raise": numpy runs each of
    those through a buffer of up to 8,192 values.
    """
    np.logical_or(other, zero, out=other)
    np.putmask(a, other, 1.0)
    exponent, decades, scales, nines, digits, marks = _tables()
    m, take = a.size, scratch.take
    b, j, n = (take(0, np.int64) for _ in range(3))
    work = take(3).reshape(8, m)  # N's digit groups, and the temporary before them, reuse it
    p, hi, lo, e, t = work[:5]
    s = work[5:]
    # a in [2**(e-1), 2**e) has X = floor(e * log10(2)) or one less; exact, as
    # each double 1e-k lies above 10**-k, so none lies between them. Every a
    # here is a normal double, whose frexp exponent e is its biased one - 1022.
    np.right_shift(a.view(np.int64), 52, out=b)
    b -= 1008
    np.take(exponent, b, out=j, mode="clip")
    # j += a < 10**X: the sign bit of a - 10**X, as -1 or 0
    below = np.subtract(a, np.take(decades, b, out=t, mode="clip"), out=t).view(np.int64)
    j -= np.right_shift(below, 63, out=below)
    np.take(scales, j, axis=1, out=s, mode="clip")  # 10**j and its two halves
    np.multiply(a, s[0], out=p)
    np.multiply(a, _SPLIT, out=hi)
    np.subtract(hi, np.subtract(hi, a, out=t), out=hi)
    np.subtract(a, hi, out=lo)
    np.multiply(hi, s[1], out=e)
    e -= p
    for x, y in ((hi, s[2]), (lo, s[1]), (lo, s[2])):
        e += np.multiply(x, y, out=t)
    n[...] = p  # p and rint(e) are whole, so the casts are exact
    b[...] = np.rint(e, out=e)
    n += b
    b[...] = a  # floor(a)
    b *= np.take(nines, j, out=t.view(np.int64), mode="clip")
    n += b
    np.putmask(n, zero, 0)
    quotients = take(3, np.int64).reshape(-1)  # the marks reuse it once the groups hold N'
    q = quotients[: 5 * m].reshape(5, m)
    for row, place in zip(q, (10**16, 10**12, 10**8, 10**4, 1)):  # N' // 10**16, ... // 1
        np.floor_divide(n, place, out=row)
    ints = work.view(np.int64)
    q[1:] -= np.multiply(q[:-1], 10_000, out=ints[:4])
    bare = np.equal(q[1:], 0, out=take(2, np.bool_).reshape(4, m))  # group k + 1 is 0
    for k in (2, 1, 0):
        bare[k] &= bare[k + 1]  # so only zeros follow group k
    np.add(q[:4], 10_000, out=q[:4], where=bare)  # the row without trailing zeros
    q[4] += 10_000
    groups = ints.reshape(-1)[: 6 * m].reshape(m, 6)
    groups[:, 0] = 10_000  # N' in groups 1-5, after a NUL group 0
    groups[:, 1:] = q.T
    digits.take(groups, out=fields.view(np.uint32), mode="clip")
    j *= 2
    j -= negative  # 2 * j + negative
    mark = quotients[: 3 * m].view(np.uint64).reshape(m, 3)
    fields.view(np.uint64)[...] |= np.take(marks, j, axis=0, out=mark, mode="clip")


def block_fields(part: list[np.ndarray], scratch: Scratch) -> np.ndarray:
    """The bytes that ``_PRINT`` and ``_DROP`` turn into the CSV lines of the
    columns ``part``, as a view of ``scratch``'s slots, which it starts."""
    rows, width = len(part[0]), len(part)
    take = scratch.start(rows * width).take
    values = take(0).reshape(rows, width)
    for k, col in enumerate(part):
        values[:, k] = col if col.dtype.kind == "f" else np.inf  # an integer prints through %
    a = values.reshape(-1)
    negative = np.right_shift(a.view(np.int64), 63, out=take(0, np.int64))
    np.abs(a, out=a)
    zero, other, small = (take(0, np.bool_) for _ in range(3))
    np.equal(a, 0.0, out=zero)
    np.greater_equal(a, 1e17, out=other)  # exponent notation, or an integer
    other |= np.logical_xor(np.less(a, 1e-4, out=small), zero, out=small)
    texts = []
    columns = other.reshape(rows, width)
    for k in columns.any(axis=0).nonzero()[0].tolist():
        at = columns[:, k].nonzero()[0]
        spec = "%.17g" if part[k].dtype.kind == "f" else "%d"
        texts.append((at, k, [spec % x for x in part[k][at].tolist()]))
    # a separator and up to 23 characters, but %.17g of -1.2345678901234567e-100 takes 24
    size = max([_FIELD - 1] + [max(map(len, t)) for *_, t in texts]) + 1
    fields = take(5, np.uint8).reshape(-1)[: a.size * size].reshape(rows, width, size)
    fields[..., _FIELD:] = 0
    _fixed_fields(a, negative, zero, other, fields[..., :_FIELD].reshape(-1, _FIELD), scratch)
    fields[:, 0, 0] = ord("\n")  # ends the row before; the first row's is dropped
    for at, k, t in texts:
        fields[at, k, 1:] = np.array(t, f"S{size - 1}").view(np.uint8).reshape(len(at), -1)
    return fields.reshape(-1)[1:]


def block_text(prefix: str, part: list[np.ndarray], scratch: Scratch) -> str:
    """The CSV lines of the columns ``part``, each line starting with ``prefix``."""
    text = block_fields(part, scratch).tobytes().translate(_PRINT, _DROP).decode("ascii")
    return prefix + text.replace("\n", "\n" + prefix) + "\n" if prefix else text + "\n"
