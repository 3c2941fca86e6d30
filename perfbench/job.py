"""Run one ``lindosc`` CLI call in this fresh process and record its costs.

    python3 job.py RECORD SRC SPANS|- -- ARGV...

Imports ``lindosc.cli`` from ``SRC`` (never from an installed copy), notes the
monotonic clock right after the import so the parent can measure set-up from
the moment it spawned this process, times ``lindosc.cli.main(ARGV)``, and
writes a JSON record.  With a SPANS path the call runs traced (see
``tracer.py``) and the spans are written there after the call.
"""

import sys
import time


def main() -> int:
    record_path, src, spans_path = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: job.py RECORD SRC SPANS|- -- ARGV...")
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    import lindosc.cli

    imported = time.monotonic()

    import json
    import os
    import resource

    module_file = os.path.realpath(lindosc.cli.__file__)
    if not module_file.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"lindosc imported from {module_file}, not from {src}")

    tracer = None
    if spans_path != "-":
        import tracer as tracing

        tracer = tracing.install(job=os.path.basename(record_path))
    start = time.perf_counter()
    code = lindosc.cli.main(argv)
    job_s = time.perf_counter() - start
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(spans_path)
    record = {
        "imported_monotonic": imported,
        "job_s": job_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
