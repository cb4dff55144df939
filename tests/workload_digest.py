"""One SHA-256 over every output of the benchmark's call lists.

Builds the four workloads of ``bench/workloads.py`` at seeds 1 and 7 and
runs each call list twice in this one process through ``knx.cli.main``:
cold (the list's first pass), then warm.  Each call's exit code, stdout and
stderr, with the call's temporary directory masked, feed one digest, which
is printed after the call count.  Two checkouts print the same digest
exactly when every call gave the same bytes.  Uses the standard library
only and is not collected by pytest:

    PYTHONPATH=src python tests/workload_digest.py

Compare digests taken under one interpreter: the text of some errors from
``json`` differs between Python versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (1, 7)


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    from knx.cli import main as knx_main

    digest = hashlib.sha256()
    count = 0
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            workload = workloads.build(name, seed)
            with tempfile.TemporaryDirectory() as directory:
                for file, text in workload.files.items():
                    Path(directory, file).write_text(text, encoding="utf-8")
                for _ in ("cold", "warm"):
                    for call in workload.calls:
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = knx_main(call.argv(directory))
                        outputs = [code, out.getvalue(), err.getvalue()]
                        text = json.dumps([o.replace(directory, "<tmp>") if isinstance(o, str) else o
                                           for o in outputs])
                        digest.update(text.encode() + b"\n")
                        count += 1
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
