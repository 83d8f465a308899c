"""Run ``mtriples.cli`` traced: ``python clitrace.py SPANS_JSON GROUP ACTION ...``.

The traced counterpart of ``python -m mtriples.cli GROUP ACTION ...``: it
imports the CLI under a ``cli.import`` span, installs the span proxies, calls
``mtriples.cli.main`` and writes the spans to SPANS_JSON before exiting with
main's exit code.  It finds ``mtriples`` through PYTHONPATH, as the CLI does.
"""

import json
import sys

from spans import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.open("cli.import")
    import mtriples.cli

    tracer.close(span)
    install(tracer)
    try:
        return mtriples.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
