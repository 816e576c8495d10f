"""Run one ``pegica`` command with the timing shims installed.

Usage: ``python3 perfbench/traced_cli.py SPANS.json <pegica arguments...>``.
The spans go to SPANS.json and the exit code is the command's own.
"""

import sys

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import pegica.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return pegica.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
