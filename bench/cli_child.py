"""Traced stand-in for ``python -m hexlat.cli``: usage ``cli_child.py OUT.json ARGV...``.

Times the import of hexlat.cli, installs the span wrappers, runs
``hexlat.cli.main(ARGV)`` as the root span, writes the span totals to OUT.json
and exits with main's return code.
"""

import sys
import time

BOOT_NS = time.perf_counter_ns()

import spans  # noqa: E402  (stdlib-only; imported after the boot stamp)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import hexlat.cli

    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    tracer.layer_of["main"] = "cli"
    tracer.op_id = 0
    tracer.start()
    try:
        rc = tracer.root("main", hexlat.cli.main, argv)
    finally:
        tracer.stop()
        tracer.write(out_path, {"boot_ns": BOOT_NS, "import_s": import_s,
                                "layer_self_s": tracer.layer_self_s()})
    return rc


if __name__ == "__main__":
    sys.exit(main())
