"""Little-endian records shared by the transducer and tagger file formats:
fixed-size values, u32 counts and lengths, length-prefixed UTF-8 strings."""

import struct

_U32 = struct.Struct("<I")


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

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise self._error(f"trailing bytes after {self._kind} data")
