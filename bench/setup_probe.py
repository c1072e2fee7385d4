"""Set-up probe, run in a fresh interpreter by ``run.py``.

    python3 bench/setup_probe.py run|sweep CONFIG

Imports hilbench from ``src/`` of the current directory, loads CONFIG (a
preset name or a file) and resolves it as a run or a sweep config, which is
everything a CLI invocation does before its first unit of work.  It then
prints ``ready``; the parent times the interval from start to that line.
"""

import sys
from pathlib import Path


def main() -> int:
    kind, arg = sys.argv[1], sys.argv[2]
    sys.path.insert(0, str(Path.cwd() / "src"))
    import hilbench.cli  # noqa: F401  (the import graph of the CLI entry point)
    from hilbench import config, presets

    doc = presets.load(arg) if arg in presets.PRESET_NAMES else config.load_json(arg)
    resolve = config.resolve_sweep_config if kind == "sweep" else config.resolve_run_config
    resolve(doc)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
