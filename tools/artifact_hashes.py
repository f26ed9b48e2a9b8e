"""Print the sha256 of every artifact that a set of `openchaos run` configs writes.

With no arguments it runs the configs of the three benchmark workloads
(`perfbench/workloads.py`) at passes 0 and 1; given config paths, it runs
those instead.  Each config runs at `--workers` 1 and 2, each run in a fresh
Python process with OPENBLAS_NUM_THREADS=1 that imports `openchaos` from
`--src` (default: this checkout's `src`), with its output in a temporary
directory.  The output is one sorted line per artifact the run's manifest
lists:

    <config>/<workers>/<artifact path> <sha256>

where <config> is `<workload>-p<pass>-<index>` or the path as given.  Two
checkouts are compared by diffing two runs, for example against an export
of the parent commit:

    git archive HEAD~1 | tar -x -C ../parent
    python tools/artifact_hashes.py --src ../parent/src > parent.txt
    python tools/artifact_hashes.py > change.txt
    diff parent.txt change.txt

A run that exits nonzero stops the tool with that run's stderr and exit code.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = ("1", "2")
PASSES = (0, 1)

# The child imports openchaos from argv[1] ahead of anything else on sys.path, and refuses to run another copy.
_CHILD = """
import sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
from openchaos import cli
if Path(cli.__file__).resolve().parents[1] != src:
    sys.exit(f"openchaos imported from {cli.__file__}, not from {src}")
sys.exit(cli.main(["run", sys.argv[2], "--output-dir", sys.argv[3], "--workers", sys.argv[4]]))
"""


def workload_configs() -> dict:
    """{name: config} of every benchmark workload's configs at each of PASSES."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {
        f"{name}-p{p}-{i}": cfg
        for name, w in workloads.WORKLOADS.items()
        for p in PASSES
        for i, cfg in enumerate(workloads.configs(w, workloads.DEFAULT_SEED, p))
    }


def artifact_lines(name: str, config: dict, src: Path, tmp: Path) -> list:
    """One `name/workers/path sha256` line per manifest artifact, for each of WORKERS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    lines = []
    for workers in WORKERS:
        run_dir = Path(tempfile.mkdtemp(dir=tmp))
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(config))
        out = run_dir / "out"
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(src), str(config_path), str(out), workers],
            env=env, cwd=run_dir, capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(f"{name} at --workers {workers} exited {done.returncode}:\n{done.stderr}")
            sys.exit(done.returncode)
        manifest = json.loads((out / "manifest.json").read_text())
        lines += [f"{name}/{workers}/{a['path']} {a['sha256']}" for a in manifest["artifacts"]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", help="JSON config files (default: the benchmark workloads' configs)")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the openchaos package")
    args = parser.parse_args()
    if args.configs:
        configs = {path: json.loads(Path(path).read_text()) for path in args.configs}
    else:
        configs = workload_configs()
    src = Path(args.src).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        lines = [line for name, cfg in configs.items() for line in artifact_lines(name, cfg, src, Path(tmp))]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
