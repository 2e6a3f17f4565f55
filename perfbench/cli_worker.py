"""Run one ``hindimorph`` command in a process of its own; record its peak RSS.

    python3 perfbench/cli_worker.py RSS_FILE COMMAND [ARGS...]

Runs ``hindimorph.cli.main`` on COMMAND and ARGS with this process's
standard streams, then writes the process's peak resident set in KiB
(``VmHWM`` of ``/proc/self/status``) to RSS_FILE and exits with the
command's status.  ``VmHWM`` belongs to the program that exec started;
``ru_maxrss`` would also count the memory of the parent it was forked
from.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hindimorph import cli  # noqa: E402  (needs src on the path)


def peak_rss_kib() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    rss_file, *argv = sys.argv[1:]
    code = cli.main(argv)
    sys.stdout.flush()
    Path(rss_file).write_text(str(peak_rss_kib()))
    sys.exit(code)
