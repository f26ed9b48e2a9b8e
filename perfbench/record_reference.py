#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against at the default seed.

    python3 perfbench/record_reference.py [workload ...]

Runs each named workload (default: all) once at the default seed, checks
the invariants, and writes every artifact's text, plus the manifest's
artifact list (with sha256) and grid, to perfbench/reference/<workload>.json.gz.
Re-record only when the workload definitions change, never to make a
changed program pass.
"""

import dataclasses
import shutil
import sys
from pathlib import Path

import run  # sets the BLAS thread variables before numpy is imported
from checks import check_config, read_outputs, save_reference


def record(cli, workload) -> None:
    work = run.OUT / f"reference-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    paths = run.write_configs(workload, run.DEFAULT_SEED, 0, work / "configs")
    artifacts, manifests = [], []
    for k, path in enumerate(paths):
        cfg = cli.load_config(path)
        cfg.output_dir = str(work / f"c{k}")
        cli.run(cfg, workers=workload.workers)
        manifest, texts = read_outputs(Path(cfg.output_dir))
        problems = check_config(dataclasses.asdict(cfg), manifest, texts)
        bad = {op: why for op, why in problems.items() if why}
        if bad:
            raise SystemExit(f"{workload.name} config {k} fails its invariants: {bad}")
        artifacts.append(texts)
        manifests.append({key: manifest[key] for key in ("artifacts", "grid", "errors")})
    data = {
        "seed": run.DEFAULT_SEED,
        "configs": run.resolved_configs(cli, paths),
        "artifacts": artifacts,
        "manifests": manifests,
    }
    target = run.REFERENCE_DIR / f"{workload.name}.json.gz"
    save_reference(target, data)
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {target.relative_to(run.ROOT)}")


def main(argv) -> int:
    cli = run.import_library()
    if cli is None:
        print("no openchaos source under src/", file=sys.stderr)
        return 2
    for name in argv or sorted(run.WORKLOADS):
        record(cli, run.WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
