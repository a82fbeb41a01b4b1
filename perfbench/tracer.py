"""Run one tfekit CLI invocation with a span around each call into a layer.

Usage: python3 perfbench/tracer.py SPANS_JSON WORKLOAD TFEKIT_ARGS...

The spans wrap the public functions the CLI calls, patched where the CLI
and instfreq look them up, so nested calls (the parts of if_track, the
reconstruct inside a verify) get the enclosing span as parent. Each span
records its name, start, end, parent and workload; the spans stay in memory
and are written to SPANS_JSON when the invocation ends. The process exits
with the CLI's status.
"""

import json
import os
import sys
import time

from tfekit import cli, filterbank, instfreq

# (object the caller looks the name up on, attribute, span name, extra).
# extra ("bytes", i) records the size of the file named by positional
# argument i after the call; ("stages", i) the number of FIR cutoffs, one
# per filter stage, in positional argument i.
LAYERS = [
    (cli, "load_csv", "io.load_csv", ("bytes", 0)),
    (cli, "dft_decompose", "filterbank.dft_decompose", None),
    (cli, "verify_orthogonality", "filterbank.verify_orthogonality", None),
    (filterbank.Decomposition, "reconstruct", "filterbank.reconstruct", None),
    (cli, "fmd_decompose", "fmd.fmd_decompose", ("stages", 1)),
    (cli, "verify_linoep", "fmd.verify_linoep", None),
    (cli, "if_track", "instfreq.if_track", None),
    (instfreq, "analytic_signal", "analytic.analytic_signal", None),
    (instfreq, "phase_diff", "instfreq.phase_diff", None),
    (instfreq, "positive_if", "instfreq.positive_if", None),
    (cli, "build_tfe", "tfe.build_tfe", None),
    (cli, "export_track_csv", "tfe.export_track_csv", ("bytes", 1)),
    (cli, "export_grid_csv", "tfe.export_grid_csv", ("bytes", 1)),
]


class Tracer:
    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._open = []

    def wrap(self, name, fn, extra=None):
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None,
                    "workload": self.workload}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if extra is not None:
                kind, index = extra
                if kind == "bytes":
                    span["bytes"] = os.path.getsize(args[index])
                else:
                    span["stages"] = len(args[index])
            return result
        return traced


def main():
    spans_path, workload, *argv = sys.argv[1:]
    tracer = Tracer(workload)
    for owner, attr, name, extra in LAYERS:
        # a layer the program no longer calls by this name reports no spans
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, tracer.wrap(name, fn, extra))
    status = tracer.wrap("cli.main", cli.main)(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
