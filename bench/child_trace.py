"""Run one ``divfilt`` command under the benchmark's tracer.

    python bench/child_trace.py TRACE.json [divfilt arguments...]

Behaves like ``python -m divfilt.cli`` (same stdout, stderr and exit code)
and writes the spans, call counts and events of the command to TRACE.json.
The ``cli-cold`` workload starts it in place of the plain command during a
traced run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from divfilt import cli  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    tracer.request = 0
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
