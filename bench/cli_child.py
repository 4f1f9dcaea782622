"""Run one wvsagnac CLI command with span recording, in a child process.

    python bench/cli_child.py SPANS_PATH <wvsagnac arguments...>

Installs the same wrappers as the traced in-process run (spans.py) before
calling the click entry point, and writes the spans to SPANS_PATH when the
command ends, whatever its exit code. Needs src/ on PYTHONPATH.
"""

import sys
import time

t0 = time.perf_counter()
import wvsagnac.cli  # noqa: E402

import_s = time.perf_counter() - t0

from spans import Tracer  # noqa: E402


def main():
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    try:
        wvsagnac.cli.main.main(args=args, prog_name="wvsagnac")
    finally:
        tracer.recording = False
        tracer.restore()
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    main()
