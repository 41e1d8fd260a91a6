"""Run one `tilesub` command in this interpreter under a peak RSS ceiling.

    python ci/peak_rss.py CEILING_MIB COMMAND [ARGS...]

runs `tilesub COMMAND ARGS...`, prints `peak_rss_kib=<peak>` on stderr and
exits 3 when the process's peak RSS (`ru_maxrss`, in KiB on Linux) is above
CEILING_MIB * 1024 KiB, else with the command's own exit code. No command
exits 3, so a breach is never mistaken for a verdict.
"""
import resource
import sys

from tilesub.cli import main

BREACH = 3


def run(argv: list[str]) -> int:
    ceiling, *command = argv
    code = main(command)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak_rss_kib={peak}", file=sys.stderr)
    return code if peak <= int(ceiling) * 1024 else BREACH


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
