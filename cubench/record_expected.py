"""Record the expected search report bodies that the correctness gate uses.

    python3 cubench/record_expected.py [search-rank] [search-keller]

Writes ``cubench/expected/<workload>.jsonl``: one report body per pool
config, the report's JSON text without its ``duration_seconds`` field.
Re-record only when the report format changes on purpose, and review the
diff: a changed body is what the gate exists to catch.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    names = sys.argv[1:] or [
        name for name, w in workloads.WORKLOADS.items()
        if isinstance(w, workloads.SearchWorkload)
    ]
    for name in names:
        workloads.record_expected(name)
