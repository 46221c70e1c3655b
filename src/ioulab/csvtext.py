"""The CSV text of numpy columns: one block of rows at a time, every float
exactly as ``%.17g`` prints it.

numpy builds the floats that ``%.17g`` prints in fixed notation as dense
24-byte fields, their digits exact by Dekker's two-product
(``_fixed_fields``), and one ``bytes.translate`` turns a block's fields into
its text; ``%`` formats the integers and the floats in exponent notation.
``cli._csv`` loads this module with a command's first CSV, so that ``eval``
never compiles it and ``sim`` and ``sweep`` compile it after their memory
peak.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

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
    and its two halves, and 9 * 10**j (0 for X < 0). The place of each 4-digit
    group of N'. The 4-digit groups in ASCII, row 10,000 + i the same with its
    trailing zeros as NUL. By 2 * j + negative: the marks."""
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
            10 ** np.arange(16, -1, -4)[:, None], digits.view(np.uint32).ravel(),
            marks.reshape(42, _FIELD).view(np.uint64))


class Buffers:
    """The arrays of a CSV's blocks, kept across the blocks and cut to each
    block's shape, so that a block allocates nothing of its size.

    Made afresh, a block's 25 temporaries (about 1 MB at 372 rows of 11
    columns) left the heap top free after every block in some heap layouts,
    so glibc trimmed it and the next block faulted it back in: a fresh
    sweep-dense run then took 4 times its minor faults. The shapes ((5, n)
    and (n, 6) digit groups, (n, 3) marks, the field bytes) are not
    batch.Scratch's (2,) * lead + (n,) slots, so these are named flat
    buffers, each grown to the largest array asked of it.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}
        self._blocks: dict[tuple[int, int], SimpleNamespace] = {}

    def block(self, rows: int, width: int) -> SimpleNamespace:
        """The arrays of a block of ``rows`` x ``width`` values; one shape's are made once."""
        arrays = self._blocks.get((rows, width))
        if arrays is None:
            arrays = self._blocks[rows, width] = self._arrays(rows * width)
            arrays.values = arrays.values.reshape(rows, width)
        return arrays

    def _arrays(self, m: int) -> SimpleNamespace:
        # Arrays of one name share their memory: the digit groups, and the
        # temporary before them, reuse the float work rows once N' is built,
        # and the marks reuse the groups' quotients once the groups hold them.
        a = self._array
        return SimpleNamespace(
            values=a("values", (m,)), negative=a("negative", (m,), np.int64),
            zero=a("zero", (m,), np.bool_), other=a("other", (m,), np.bool_),
            small=a("small", (m,), np.bool_), b=a("b", (m,), np.int64),
            j=a("j", (m,), np.int64), n=a("n", (m,), np.int64),
            work=a("work", (8, m)), groups=a("work", (m, 6), np.int64),
            spare=a("work", (4, m), np.int64), q=a("q", (5, m), np.int64),
            marks=a("q", (m, 3), np.uint64), bare=a("bare", (4, m), np.bool_),
            text=a("text", (m * (_FIELD + 1),), np.uint8),  # up to 25 bytes a field
        )

    def _array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, np.uint8)
            self._blocks.clear()  # views of the old buffer: made again on use
        return flat[:size].view(dtype).reshape(shape)


def _fixed_fields(a: np.ndarray, v: SimpleNamespace, fields: np.ndarray) -> None:
    """Write ``%.17g`` of each value ``a`` (overwritten) that is not ``v.other``
    (overwritten) into its row of ``fields``: each value of decimal exponent X
    in -4..16, and 0. ``v.negative`` is -1 where the value's sign bit is set,
    else 0, and ``v.zero`` is where ``a`` is 0; the other arrays of ``v``
    hold the temporaries.

    Such a value prints the 17 digits of N = a * 10**j, j = 16 - X, rounded
    half to even. 10**j is an exact double, so Dekker's two-product gives the
    exact product as p + e; p >= 1e16 > 2**53 is an even integer, so
    N = p + rint(e), and no double below 1e17 rounds up to the next power of
    ten. Nor does a double round up to the next integer at 17 digits, so the
    first X + 1 digits of N are floor(a), and N' = N + 9 * 10**j * floor(a)
    is N with a 0 put in after them, where the dot goes.

    No step adds a bool to an int, broadcasts two blocks against each other
    or takes with mode "raise": numpy runs each of those through a buffer of
    up to 8,192 values.
    """
    np.logical_or(v.other, v.zero, out=v.other)
    np.putmask(a, v.other, 1.0)
    exponent, decades, scales, nines, places, digits, marks = _tables()
    b, j, n = v.b, v.j, v.n
    p, hi, lo, e, t = v.work[:5]
    s = v.work[5:]
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
    np.putmask(n, v.zero, 0)
    q = np.floor_divide(n, places, out=v.q)  # N' // 10**16, // 10**12, ... // 1
    q[1:] -= np.multiply(q[:-1], 10_000, out=v.spare)
    bare = np.equal(q[1:], 0, out=v.bare)  # group k + 1 is 0
    for k in (2, 1, 0):
        bare[k] &= bare[k + 1]  # so only zeros follow group k
    np.add(q[:4], 10_000, out=q[:4], where=bare)  # the row without trailing zeros
    q[4] += 10_000
    v.groups[:, 0] = 10_000  # N' in groups 1-5, after a NUL group 0
    v.groups[:, 1:] = q.T
    digits.take(v.groups, out=fields.view(np.uint32), mode="clip")
    j *= 2
    j -= v.negative  # 2 * j + negative
    fields.view(np.uint64)[...] |= np.take(marks, j, axis=0, out=v.marks, mode="clip")


def block_fields(part: list[np.ndarray], buf: Buffers) -> np.ndarray:
    """The bytes that ``_PRINT`` and ``_DROP`` turn into the CSV lines of the
    columns ``part``, as a view of ``buf``'s arrays."""
    rows, width = len(part[0]), len(part)
    v = buf.block(rows, width)
    for k, col in enumerate(part):
        v.values[:, k] = col if col.dtype.kind == "f" else np.inf  # an integer prints through %
    a = v.values.reshape(-1)
    np.right_shift(a.view(np.int64), 63, out=v.negative)
    np.abs(a, out=a)
    np.equal(a, 0.0, out=v.zero)
    other = np.greater_equal(a, 1e17, out=v.other)  # exponent notation, or an integer
    other |= np.logical_xor(np.less(a, 1e-4, out=v.small), v.zero, out=v.small)
    texts = []
    columns = other.reshape(rows, width)
    for k in columns.any(axis=0).nonzero()[0].tolist():
        at = columns[:, k].nonzero()[0]
        spec = "%.17g" if part[k].dtype.kind == "f" else "%d"
        texts.append((at, k, [spec % x for x in part[k][at].tolist()]))
    # a separator and up to 23 characters, but %.17g of -1.2345678901234567e-100 takes 24
    size = max([_FIELD - 1] + [max(map(len, t)) for *_, t in texts]) + 1
    fields = v.text[: a.size * size].reshape(rows, width, size)
    fields[..., _FIELD:] = 0
    _fixed_fields(a, v, fields[..., :_FIELD].reshape(-1, _FIELD))
    fields[:, 0, 0] = ord("\n")  # ends the row before; the first row's is dropped
    for at, k, t in texts:
        fields[at, k, 1:] = np.array(t, f"S{size - 1}").view(np.uint8).reshape(len(at), -1)
    return fields.reshape(-1)[1:]


def block_text(prefix: str, part: list[np.ndarray], buf: Buffers) -> str:
    """The CSV lines of the columns ``part``, each line starting with ``prefix``."""
    text = block_fields(part, buf).tobytes().translate(_PRINT, _DROP).decode("ascii")
    return prefix + text.replace("\n", "\n" + prefix) + "\n" if prefix else text + "\n"
