"""Time one cold start of the CLI in this fresh interpreter.

    python3 bench/setup_probe.py SRC COMMAND CONFIG OUT SEED

Imports ``extinctlab.cli`` from SRC and runs ``cli.main`` up to the point
where the subcommand would start: the subcommand is replaced by a stub that
records the time and returns.  Prints one JSON object: ``setup_s`` (import
through argument parsing, config loading and output-directory creation),
``import_s``, and ``load_s``, the time inside ``load_config``.
"""

import json
import sys
import time


def main(argv):
    src, command, config, out, seed = argv
    sys.path.insert(0, src)
    start = time.perf_counter()
    import extinctlab.cli as cli
    imported = time.perf_counter()

    result = {"import_s": imported - start}
    reached = []

    def stub(parser, out_dir, args):
        reached.append(time.perf_counter())
        return 0

    def timed_load(path):
        t = time.perf_counter()
        try:
            return load_config(path)
        finally:
            result["load_s"] = time.perf_counter() - t

    cli._COMMANDS[command] = stub
    load_config, cli.load_config = cli.load_config, timed_load

    code = cli.main([command, "--config", config, "--out", out, "--seed", seed])
    if code != 0 or not reached:
        print(f"cli.main returned {code} before the subcommand started",
              file=sys.stderr)
        return 1
    result["setup_s"] = reached[0] - start
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
