"""The package's one reader and one writer of files.

`read_text` reads every UTF-8 text input: rule files, root lists,
indeclinable dictionaries, tagged and raw corpora.  `records` walks the
line records of a root list or an indeclinable dictionary.
`write_atomic` writes every output file: models and word lists.
"""

import os
import unicodedata
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


def records(path, error: type[Exception]):
    """(line number, NFC line) for each line of a UTF-8 file that is not
    blank once cut at its first ``%``, which starts a comment; the line
    is cut there but not stripped."""
    for lineno, raw in enumerate(read_text(path, error).split("\n"), start=1):
        line = unicodedata.normalize("NFC", raw.partition("%")[0])
        if line.strip():
            yield lineno, line


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a new sibling of `path`, then rename it into place,
    so a failure never leaves a partial file.  The file gets the mode
    ``open(path, "wb")`` gives a new file: 0o666 less the umask."""
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")  # a name already taken raises, and is left alone
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
