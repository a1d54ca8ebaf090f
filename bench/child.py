"""One workload in one fresh interpreter (started by run.py).

Prints JSON lines: ``{"event": "ready"}`` when set-up is done — the
parent takes the time from spawning this interpreter to that line as
one ``setup_s`` sample — then ``{"event": "result", ...}``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from common import FULL, PIPELINE_WORKLOADS, SMOKE, SRC, WORKLOADS, emit


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", default=None,
                        help="run the layer pass and write its spans here")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--full-check", action="store_true",
                        help="also run the validation=\"full\" check "
                             "(seconds of dense eigensolve; once per run "
                             "is enough)")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    sizes = SMOKE if args.smoke else FULL
    scratch = Path(args.scratch)
    if args.workload in PIPELINE_WORKLOADS:
        from pipeline import PipelineWorkload

        workload = PipelineWorkload(
            args.workload, args.seed, args.seconds, sizes, scratch,
            args.full_check)
    else:
        from service import ServiceWorkload

        workload = ServiceWorkload(args.seed, args.seconds, sizes, scratch)
    try:
        workload.setup()
        emit({"event": "ready"})
        if args.trace_out is not None:
            result = workload.layer_pass(Path(args.trace_out))
        else:
            result = workload.timed()
    finally:
        workload.teardown()
    emit({"event": "result", **result})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
