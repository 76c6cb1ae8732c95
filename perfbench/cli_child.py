"""Run one `invot` CLI command with every layer traced, then write its spans.

Usage: python3 cli_child.py SPANS_JSON SPAWN_TIME invot-args...

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process; the gap to the end of `import invot.cli` is the start-up time.
"""

import json
import sys

from tracing import Tracer, install, now, uninstall


def main() -> int:
    spans_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import invot.cli

    ready = now()
    tracer = Tracer()
    undo = install(tracer)
    try:
        return tracer.wrap("cli.main", invot.cli.main)(argv)
    finally:
        uninstall(undo)
        with open(spans_path, "w") as fh:
            json.dump({"startup_s": ready - spawned, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
