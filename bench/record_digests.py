"""Record the partial-fraction digests that the pipeline workload checks.

    python3 bench/record_digests.py

Writes bench/digests.json.  The digests pin the canonical output of
`partial_fractions` for every pipeline input and chart; re-record them only
when a change to the canonical form is intended.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from residuum import decomposition  # noqa: E402
import workloads  # noqa: E402


def main():
    digests = {}
    for inp in workloads.pipeline_inputs():
        for var in inp.charts:
            fd = decomposition.prepare_denominator(inp.factors, var)
            digests[f"{inp.name}@{var}"] = workloads.pfd_digest(decomposition.partial_fractions(fd))
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS_PATH.name}")


if __name__ == "__main__":
    main()
