"""Start ``repro serve`` with the layer wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_launcher.py --spans-out spans.json -- serve --root DIR ...

Everything after ``--`` goes unchanged to the program's own command-line
entry point, so the traced server has the same topology as an untraced
``python -m repro serve``.  On shutdown (SIGINT) the recorded spans,
counters and per-tenant registry calls are written to ``--spans-out``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as tracing  # noqa: E402


def main(argv):
    split = argv.index("--")
    out = argv[argv.index("--spans-out") + 1]
    from repro.cli import main as repro_main

    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        code = repro_main(argv[split + 1:])
    finally:
        tracing.uninstall(undo)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({
                "spans": recorder.spans(),
                "counters": recorder.counters(),
                "samplers": recorder.sampler_count,
                "cache": [recorder.cache_hits, recorder.cache_misses,
                          recorder.cache_peak_bytes],
                "registry_calls": recorder.registry_calls,
            }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
