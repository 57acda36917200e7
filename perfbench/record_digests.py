"""Record the input and artifact digests that run.py checks against.

    python3 perfbench/record_digests.py [FIRST_SEED LAST_SEED]

Runs each workload once per seed (default 0..20) through the harness and
writes perfbench/expected.json. A later run whose input digest matches the
recorded one must reproduce the recorded artifact digest byte for byte.
Re-record only with a change that alters the artifact format on purpose.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 20)
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    doc = {}
    for w in WORKLOADS.values():
        for seed in range(first, last + 1):
            raw = run.measure(w, seed, seconds=0.0, trace=False, expected=None, min_reps=1)
            rep = raw["reps"][0]
            if "failure" in rep:
                print(f"{w.name} seed {seed}: {rep['failure']}", file=sys.stderr)
                return 1
            doc.setdefault(w.name, {})[str(seed)] = {"input": raw["input_digest"],
                                                     "artifacts": rep["digest"]}
            print(w.name, seed, rep["digest"][:16], flush=True)
    run.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
