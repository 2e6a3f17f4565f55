"""The one reader of the package's UTF-8 text inputs: rule files, root
lists, indeclinable dictionaries, tagged and raw corpora."""

from pathlib import Path


def read_text(path, error: type[Exception]) -> str:
    """The text of a UTF-8 file, with newlines translated as in text mode.

    A leading byte-order mark is dropped.  A byte sequence that is not
    UTF-8 raises `error`, naming the path and the offset of its first
    byte.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid UTF-8 at byte {exc.start}") from exc
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
