"""Traced launcher for one crnlap CLI invocation (used by the traced cli run).

    python3 cli_child.py <spans.json> -- <crnlap arguments>

Imports ``crnlap.cli`` (timing the import), installs the same layer
wrappers as the in-process traced run, calls ``crnlap.cli.run_command``
and writes its totals and spans to <spans.json> for the parent to merge.
The exit code is the command's.
"""

import json
import sys
import time

import layertrace


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py <spans.json> -- <crnlap arguments>")
    t0 = time.perf_counter()
    import crnlap.cli

    import_s = time.perf_counter() - t0
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        code = crnlap.cli.run_command(argv)
    except SystemExit as e:  # argparse exits for --version
        code = e.code if isinstance(e.code, int) else 0
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"totals": tracer.totals(), "spans": tracer.spans, "import_s": import_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
