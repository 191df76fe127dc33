"""Run one sepal command in this process, as the `sepal` console script does.

    python3 perfbench/launch.py [--trace OUT.json] -- <sepal arguments>

With --trace, the span wrappers from tracer.py are installed before the
command runs and the spans are written to OUT.json when it returns.  The
package is imported from the `src/` directory next to this one, never
from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(SRC))
    import sepal.cli

    if not Path(sepal.cli.__file__).resolve().is_relative_to(SRC):
        print(f"launch: sepal imported from {sepal.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if trace_out is None:
        return sepal.cli.main(argv)

    from tracer import Tracer  # this script's directory is on sys.path

    tracer = Tracer()
    tracer.install()
    try:
        return sepal.cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
