#!/usr/bin/env python3
"""Record the correctness gate's reference outputs into references.json.

    python3 perfbench/record_references.py [WORKLOAD ...]

Runs every (or each named) workload's invocations once per program seed in MASTER_SEEDS
through the CLI, exactly as the benchmark does, and stores each snapshot.
Re-record only when a change to the program's outputs is intended and has
been checked by other means: the references are what the gate trusts.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
from workloads import MASTER_SEEDS, REFERENCES, WORKLOADS, invoke, write_config


def main(names) -> int:
    refs = json.loads(REFERENCES.read_text())["workloads"] if REFERENCES.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for name in names or WORKLOADS:
            workload = WORKLOADS[name]
            refs[name] = {}
            for seed in MASTER_SEEDS:
                snaps = []
                for k, inv in enumerate(workload.invocations):
                    out = scratch / f"out{k}"
                    shutil.rmtree(out, ignore_errors=True)
                    res = invoke(inv, seed, write_config(inv, scratch / "cfg.json"), out)
                    snaps.append(gate.snapshot(res.exit_code, out))
                    print(f"{name} seed {seed} {inv.subcommand}: exit {res.exit_code}, "
                          f"{snaps[-1]['summary']}, {res.wall_s:.2f} s", flush=True)
                refs[name][str(seed)] = snaps
    REFERENCES.write_text(json.dumps({"rtol": gate.RTOL, "workloads": refs},
                                     indent=None, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
