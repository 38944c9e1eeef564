"""`python -m qbarrier.cli` with every layer traced; spans go to a file.

    python3 perfbench/traced_cli.py SPANS_FILE [qbarrier arguments ...]

Exit code, stdout and stderr are those of the untraced command, an
uncaught exception included.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    import qbarrier.cli

    root = tracer.open(spans.ROOT)
    try:
        return qbarrier.cli.main(argv)
    finally:
        tracer.close(root)
        tracer.save(path)


if __name__ == "__main__":
    sys.exit(main())
