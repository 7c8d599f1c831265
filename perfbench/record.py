"""Record ``expected.json``: what every benchmark operation must output.

    python3 perfbench/record.py

Run it only at a commit whose outputs are known to be right; the benchmark
then holds every later commit to them.  Rejected inputs are recorded with
the exit status the error contract requires (2), not with what the program
happens to do.
"""

from __future__ import annotations

import json
import sys

from checker import EXPECTED_PATH, expectation_from
from run import CLI_WORKLOADS, OUT_DIR, Runner

REJECTED = {"bounds --n 1 --tol 0", "bounds --n 1 --tol nan"}


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner()
    cli = {}
    for ops in CLI_WORKLOADS.values():
        for _, command in ops:
            if command in REJECTED:
                cli[command] = {"exit": 2}
                continue
            out = runner.spawn(["-m", "zgap.cli", *command.split()])
            if out.exit_code != 0 or out.stderr:
                raise SystemExit(f"{command} exited {out.exit_code}: {out.stderr!r}")
            cli[command] = expectation_from(command.split(), out.exit_code, out.stdout)
    library = {str(n): {"x_exact": cli[f"bounds --n {n}"]["bounds"]["x_exact"]} for n in (1, 2)}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"cli": cli, "library": library}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
