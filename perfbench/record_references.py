"""Record the reference output digests the benchmark checks seeds against.

Seed 0 is checked against the committed artifacts under ``benchmarks/out``;
every other recorded seed against the SHA-256 of its rendered output at the
commit that recorded it.  ``held_out_seed`` is kept out of tuning: a later
performance claim is re-checked on it.  Re-record only in a change that
deliberately changes a measured value, and always all seeds together, so
that every digest comes from one commit::

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile

from workload import REFERENCES, ROOT, SRC, Workload

HELD_OUT_SEED = 1009
SEEDS = tuple(range(20)) + (HELD_OUT_SEED,)


def main() -> int:
    sys.path.insert(0, SRC)
    digests = {"e1": {}, "fig4": {}}
    for output, name in (("fig4", "fig4-sweep"), ("e1", "e1-serial")):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
                workload = Workload(name, seed, workdir)
                text = workload.render(workload.call())
            digests[output][str(seed)] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
            print(f"{name} seed {seed}: {digests[output][str(seed)][:12]}",
                  flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"held_out_seed": HELD_OUT_SEED, "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
