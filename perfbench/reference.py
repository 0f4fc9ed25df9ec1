"""Fixed reference computation that gauges the host's speed.

run.py runs this script right after every pipeline child and divides each
pipeline and set-up time by this script's wall time in the same cycle. The
host this benchmark runs on is shared, and its speed drifts by tens of
percent over minutes. That drift slows this script and the pipeline alike,
so the ratio stays steady where the raw times do not.

The script imports nothing from modalign, so no change to the program can
change it. It mixes the pipeline's three kinds of work: a per-query loop of
small numpy operations (like evaluation), small matrix products (like
training) and JSON parsing (like KB ingest). Any edit to it rescales every
normalized time, so it must stay as it is.
"""

import json

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    anchors = rng.standard_normal((500, 128))
    queries = rng.standard_normal((400, 128))
    for q in queries:
        unit = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
        np.argsort(-(unit @ (q / np.linalg.norm(q))), kind="stable")

    weight = rng.standard_normal((128, 128))
    batch = rng.standard_normal((128, 128))
    for _ in range(300):
        weight -= 1e-6 * ((batch @ weight.T).T @ batch)

    record = {"id": "", "category": "c", "description": "d" * 40, "source": "llm_category"}
    for i in range(20000):
        record["id"] = f"r{i}"
        json.loads(json.dumps(record))


if __name__ == "__main__":
    main()
