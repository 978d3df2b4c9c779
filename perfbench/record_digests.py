"""Write ``digests.json``: the result digests that runs at some seeds check.

Usage, from the repository root::

    python3 perfbench/record_digests.py SECONDS SEED [SEED ...]

records, for every workload, each program seed that a run with
``--seconds SECONDS --seed SEED`` gives a full repeat.  Seeds already
in the file keep their digest (delete an entry to record it again).
Each digest (MDR, delivered pairs, engine events) comes from one
untraced full repeat that passed every other check.  The benchmark then
fails any later run at a recorded seed whose digest differs, so record
only from a commit whose results are known good; a change that claims
a speed-up must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.experiments import trace_cache  # noqa: E402

from perfbench.checks import DIGESTS_PATH, load_digests  # noqa: E402
from perfbench.measure import Probe, full_repeat, plan  # noqa: E402
from perfbench.run import pin_environment  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    seconds, seeds = float(argv[0]), [int(arg) for arg in argv[1:]]
    pin_environment()
    trace_cache.set_default_cache(None)
    digests = load_digests()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    probe = Probe()
    with probe.installed():
        for name, workload in WORKLOADS.items():
            config = workload.build()
            program_seeds = sorted({
                program_seed
                for seed in seeds
                for kind, program_seed in plan(workload, seed, seconds)
                if kind == "full"
            })
            for seed in program_seeds:
                if str(seed) in digests.get(name, {}):
                    continue
                repeat = full_repeat(
                    workload, config, seed, probe, out_dir, {}
                )
                if repeat.problems:
                    print(f"{name} seed {seed}: {repeat.problems}",
                          file=sys.stderr)
                    return 1
                digests.setdefault(name, {})[str(seed)] = repeat.digest
                print(f"{name} seed {seed}: {repeat.digest}", flush=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
