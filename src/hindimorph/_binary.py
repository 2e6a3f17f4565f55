"""Little-endian records shared by the transducer and tagger file formats:
fixed-size values, u32 counts and lengths, length-prefixed UTF-8 strings."""

import struct
from array import array
from itertools import chain, repeat
from operator import add

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _U32.pack(len(raw)) + raw


class Reader:
    """Bounds-checked cursor over one file; every malformation it meets
    raises `error`, and `kind` ("transducer") names the file in messages."""

    def __init__(self, data: bytes, error: type[Exception], kind: str):
        self._data, self._pos, self._error, self._kind = bytes(data), 0, error, kind

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
        """A u32 count, then that many (length-prefixed UTF-8 key, f64)
        records, as a dict in file order; `what` names a key in the
        errors, which include a repeated key.

        One loop walks the length prefixes to the end of each key, where
        its value starts; the keys and values are then cut out lazily,
        straight into the dict.
        """
        count, data = self.u32(), self._data
        start = pos = self._pos
        if count * 12 > len(data) - start:  # 12 bytes or more per record
            raise self._error(f"truncated {self._kind} file")
        key_ends = array("I")
        try:
            for _ in range(count):
                pos += 4 + _U32.unpack_from(data, pos)[0]
                key_ends.append(pos)
                pos += 8
        except (struct.error, OverflowError):  # a prefix, or a key end, past the data
            pos = len(data) + 1
        if pos > len(data):
            raise self._error(f"truncated {self._kind} file")

        def keys():
            # a key starts 4 bytes after the previous record's value ends
            starts = map(add, chain((start - 8,), key_ends), repeat(12))
            return map(bytes.decode, map(data.__getitem__, map(slice, starts, key_ends)))

        values = chain.from_iterable(map(_F64.unpack_from, repeat(data), key_ends))
        try:
            result = dict(zip(keys(), values))
        except UnicodeDecodeError as exc:
            raise self._error(f"{what} is not valid UTF-8") from exc
        if len(result) != count:
            seen: set[str] = set()
            for key in keys():
                if key in seen:
                    raise self._error(f"{self._kind} file repeats the {what} {key!r}")
                seen.add(key)
        self._pos = pos
        return result

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise self._error(f"trailing bytes after {self._kind} data")
