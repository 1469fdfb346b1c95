"""One benchmark set-up in a fresh interpreter: `python3 perfbench/setup_probe.py WORKLOAD SEED`.

Imports gjmslab from the checkout, builds the first round's inputs, then
prints `ready`.  The parent times process start to that line.
"""

import sys

import env
import workloads


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    env.pin()
    import gjmslab

    if workload == "cli-session":
        workloads.cli_round(seed, 0)
    else:
        workloads.IN_PROCESS_ROUNDS[workload](gjmslab, seed, 0, {})
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
