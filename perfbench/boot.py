"""Start one ``pushkit`` command with the benchmark's trace wrappers
installed, and write its spans out when the command ends:

    python3 perfbench/boot.py SPANS.json push --rank 3 "inv(1-x)"

The import of ``pushkit.cli`` is recorded as the span ``cli.import``.
"""

from __future__ import annotations

import sys
import time

from spans import Tracer


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import pushkit.cli

    tracer.add("cli.import", start, time.perf_counter())
    tracer.install()
    sys.argv = ["pushkit", *argv]
    try:
        pushkit.cli.main()
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    main()
