"""Traced CLI call: `python3 perfbench/launch.py SPANS_OUT -- <gjmslab arguments>`.

Installs the same span wrappers as the in-process workloads, then calls
`gjmslab.cli.main` and exits with its code.  Writes to SPANS_OUT the spans,
the time `import gjmslab` took and the time `main` took, so the caller can
subtract both from the process wall time.
"""

import json
import sys
import time

import env
import tracing


def run() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_OUT -- ARGS...")
    env.pin()
    started = time.perf_counter()
    import gjmslab.cli

    import_s = time.perf_counter() - started
    tracer = tracing.Tracer()
    tracer.install()
    main = tracer.span("cli.main", gjmslab.cli.main)
    code = main(argv)
    sys.stdout.flush()
    main_s = tracer.spans[0][2] - tracer.spans[0][1]
    with open(out_path, "w") as fh:
        json.dump(
            {
                "spans": tracer.spans,
                "newton_iters": tracer.newton_iters,
                "import_s": import_s,
                "main_s": main_s,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(run())
