"""Little-endian records shared by the transducer and tagger file formats:
fixed-size values, u32 counts and lengths, length-prefixed UTF-8 strings,
and a string -> float table stored as one key block and one f64 block."""

import struct
import sys
from array import array

_U32 = struct.Struct("<I")


def little_endian(values: array) -> array:
    """`values` itself, its items swapped on a big-endian host: the native
    array of a little-endian block, and the little-endian block of one."""
    if sys.byteorder == "big":
        values.byteswap()
    return values


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def pack_float_map(mapping: dict[str, float], error: type[Exception], what: str) -> bytes:
    """`mapping` sorted by key, as :meth:`Reader.float_map` reads it; a
    key holding "\\n" raises `error`, and `what` names it."""
    keys = sorted(mapping)
    block = "\n".join(keys).encode("utf-8")
    if block.count(b"\n") > max(len(keys) - 1, 0):
        bad = next(key for key in keys if "\n" in key)
        raise error(f"{what} {bad!r} holds a newline")
    values = little_endian(array("d", map(mapping.__getitem__, keys)))
    return struct.pack("<II", len(keys), len(block)) + block + values.tobytes()


class Reader:
    """Bounds-checked cursor over one file; every malformation it meets
    raises `error`, and `kind` ("transducer") names the file in messages."""

    def __init__(self, data: bytes, error: type[Exception], kind: str):
        self._data, self._pos, self._error, self._kind = bytes(data), 0, error, kind

    def header(self, magic: bytes, version: int) -> None:
        """Check the 4-byte magic and the u16 format version that open
        the file."""
        if self.take(4) != magic:
            raise self._error(f"not a {self._kind} file (bad magic)")
        (found,) = self.unpack("<H")
        if found != version:
            raise self._error(f"unsupported {self._kind} format version {found}")

    def take(self, n: int) -> bytes:
        start, self._pos = self._pos, self._pos + n
        if self._pos > len(self._data):
            raise self._error(f"truncated {self._kind} file")
        return self._data[start:self._pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def array(self, fmt: str) -> list[tuple]:
        """A u32 count, then that many `fmt` records."""
        count = self.u32()
        return list(struct.iter_unpack(fmt, self.take(count * struct.calcsize(fmt))))

    def text(self, what: str) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._error(f"{what} is not valid UTF-8") from exc

    def float_map(self, what: str) -> dict[str, float]:
        """A u32 key count, a u32 byte length, the keys as one UTF-8 block
        of that length joined by "\\n", then one f64 value per key in the
        same order; returned as a dict in file order.  `what` names a key
        in the errors, which include a repeated key and a key block that
        splits into more or fewer keys than the count.
        """
        count, size = self.unpack("<II")
        if count * 8 + size > len(self._data) - self._pos:
            raise self._error(f"truncated {self._kind} file")
        try:
            block = self.take(size).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._error(f"{what} is not valid UTF-8") from exc
        # n keys split back into n, but no keys and one empty key both join to ""
        keys = block.split("\n") if count or block else []
        if len(keys) != count:
            raise self._error(
                f"{self._kind} file counts {count} {what}s but its key block holds {len(keys)}")
        result = dict(zip(keys, little_endian(array("d", self.take(8 * count)))))
        if len(result) != count:
            seen: set[str] = set()
            for key in keys:
                if key in seen:
                    raise self._error(f"{self._kind} file repeats the {what} {key!r}")
                seen.add(key)
        return result

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise self._error(f"trailing bytes after {self._kind} data")
