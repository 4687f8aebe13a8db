"""One measured pipeline run in a fresh process.

    python3 perfbench/worker.py CONFIG OUT_DIR RESULT_JSON [--trace]

Set-up ends when ``import kbcanon``, ``load_config`` and validation are
done; the worker records that moment on the monotonic clock so the parent
can measure set-up from the moment it started the process. It then runs
``run_pipeline`` once and writes its wall time and peak RSS (and, with
``--trace``, the recorded spans) to RESULT_JSON. ``kbcanon`` must be
imported from the ``src`` directory of the checkout that holds this file.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    config_path, out_dir, result_path = argv[:3]
    trace = "--trace" in argv[3:]
    sys.path.insert(0, str(SRC))
    import kbcanon

    if Path(kbcanon.__file__).resolve().parent != SRC / "kbcanon":
        print(f"kbcanon imported from {kbcanon.__file__}, not {SRC}", file=sys.stderr)
        return 2
    config = kbcanon.load_config(config_path)
    config.validate()
    ready = time.monotonic()

    import json
    import resource

    spans = []
    if trace:
        from layers import ROOT_SPAN, Probe
        from spans import Tracer

        tracer = Tracer()
        undo = tracer.install(Probe().observers())
        root = tracer.begin(ROOT_SPAN)
    t0 = time.perf_counter()
    kbcanon.run_pipeline(config, out_dir)
    pipeline_s = time.perf_counter() - t0
    if trace:
        tracer.end(root)
        tracer.uninstall(undo)
        spans = [s.as_dict() for s in tracer.spans]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps({
        "ready_monotonic": ready,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "spans": spans,
    }) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
