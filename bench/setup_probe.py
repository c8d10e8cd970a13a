"""Set-up probe, run as a fresh child process by run.py.

Usage: python3 setup_probe.py ARGV_JSON SRC_DIR
       python3 setup_probe.py --reference

The first form times the cold start a user pays once per process: importing
wavesnap and its declared dependencies, then one tiny request of each verb
the workload uses, which covers lazy first-call work.  It prints
{"seconds": ..., "exit_codes": [...]}.

The second form times a fixed cold start that no program change can touch,
importing a set of standard-library modules, and prints {"seconds": ...}.
run.py divides the first by the second to cancel drift in machine speed.
"""

import contextlib
import importlib
import io
import json
import sys
from time import perf_counter

REFERENCE_MODULES = (
    "argparse", "asyncio", "csv", "decimal", "difflib", "email.mime.multipart", "fractions",
    "http.client", "json", "logging.handlers", "pydoc", "sqlite3", "statistics", "tarfile",
    "unittest", "xml.dom.minidom", "zipfile",
)


def main() -> None:
    if sys.argv[1:] == ["--reference"]:
        t0 = perf_counter()
        for name in REFERENCE_MODULES:
            importlib.import_module(name)
        print(json.dumps({"seconds": perf_counter() - t0}))
        return
    argv_file, src = sys.argv[1], sys.argv[2]
    with open(argv_file, encoding="utf-8") as fh:
        requests = json.load(fh)
    sys.path.insert(0, src)
    t0 = perf_counter()
    import mpmath  # noqa: F401  declared dependencies, paid by every process that uses the package
    import numpy  # noqa: F401
    from wavesnap import cli

    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.run(argv) for argv in requests]
    elapsed = perf_counter() - t0
    print(json.dumps({"seconds": elapsed, "exit_codes": codes}))


if __name__ == "__main__":
    main()
