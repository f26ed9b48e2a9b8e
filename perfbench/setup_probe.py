"""Fresh-process set-up probe: import openchaos, load and validate configs, print the clock.

Usage: python3 setup_probe.py <src dir> <config.json>...

Prints CLOCK_MONOTONIC (shared by all processes on the machine) once the
configs are validated, so the parent can subtract the moment it started
this process.  Exits 1 if a config is invalid or openchaos came from
somewhere else than <src dir>.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    from openchaos.cli import load_config, validate_config

    import openchaos

    if src not in Path(openchaos.__file__).resolve().parents:
        print(f"openchaos imported from {openchaos.__file__}, not {src}", file=sys.stderr)
        return 1
    for path in sys.argv[2:]:
        issues = validate_config(load_config(path))
        if issues:
            print(f"{path}: {'; '.join(issues)}", file=sys.stderr)
            return 1
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
