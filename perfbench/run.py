#!/usr/bin/env python3
"""openchaos benchmark: run one workload through `openchaos.cli.run`, check it, report metrics.

    python3 perfbench/run.py --workload <name>|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from its
`src/` directory.  A run measures set-up (fresh processes that import
openchaos and validate the configs), then repeats passes over the
workload's configs until `--seconds` have gone by (at least three passes),
checking every artifact of every pass.  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it alternates traced and untraced
passes and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object; details, including the
environment, go to `.perfbench_out/results/` in the checkout.
"""

import os

# BLAS reads these once, when numpy is first imported; threadpoolctl is not available.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, configs, pass_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE_DIR = HERE / "reference"

SETUP_PROBES = 5
MIN_PASSES = 3
PASS_BUDGET_S = 150.0  # no pass starts after this, so a run ends well inside 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
}


def _metric_unit(name: str) -> str:
    if name.endswith((".busy_s", ".self_s", ".s_per_call")):
        return "s"
    if name.endswith("_us"):
        return "us"
    return {
        "pqc.step_gflops": "GFLOP/s",
        "pqc.rotation_reuse": "ratio",
        "spectral.eigensolve_reuse": "ratio",
        "dephasing.pair_evals_per_s": "1/s",
        "dephasing.max_temp_mb": "MB",
        "cli.bytes_written": "bytes",
        "cli.concurrency": "ratio",
        "trace.overhead": "ratio",
    }.get(name, "count")


def _die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment


def environment(workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "workers": workload.workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "platform": platform.platform(),
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "openchaos").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(config_paths) -> list:
    """Seconds from spawning a fresh interpreter to its validated configs, SETUP_PROBES times."""
    values = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, config_paths)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        values.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return values


# ---------------------------------------------------------------------------
# one pass


def run_pass(cli, workload, config_paths, pass_dir: Path, reference) -> dict:
    """Run every config once, in order, then check all outputs; returns the pass record."""
    cfgs = []
    for k, path in enumerate(config_paths):
        cfg = cli.load_config(path)
        cfg.output_dir = str(pass_dir / f"c{k}")
        cfgs.append(cfg)
    errors = []
    manifests_bytes = 0
    t0 = time.perf_counter()
    c0 = os.times()
    for cfg in cfgs:
        try:
            manifest = cli.run(cfg, workers=workload.workers)
            manifests_bytes += sum(a["bytes"] for a in manifest["artifacts"])
        except Exception:  # a failed run fails its ops below; keep measuring
            errors.append(traceback.format_exc())
    c1 = os.times()
    wall = time.perf_counter() - t0
    cpu = (c1.user + c1.system + c1.children_user + c1.children_system) - (
        c0.user + c0.system + c0.children_user + c0.children_system
    )

    ops = failed = 0
    problems = []
    sha_equal = sha_total = 0
    n_samples = 0
    for k, cfg in enumerate(cfgs):
        resolved = dataclasses.asdict(cfg)
        manifest, texts = checks.read_outputs(Path(cfg.output_dir))
        ref = reference["artifacts"][k] if reference is not None else None
        per_op = checks.check_config(resolved, manifest, texts, ref)
        for label, why in per_op.items():
            ops += 1
            if why:
                failed += 1
                problems.append({"config": k, "op": label, "problems": why[:5]})
        n_samples += checks.samples(resolved)
        if reference is not None and manifest is not None:
            ref_sha = {a["path"]: a["sha256"] for a in reference["manifests"][k]["artifacts"]}
            for art in manifest["artifacts"]:
                sha_total += 1
                sha_equal += ref_sha.get(art["path"]) == art["sha256"]
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "samples": n_samples,
        "samples_per_s": n_samples / wall,
        "ops": ops,
        "failed": failed,
        "problems": problems,
        "errors": errors,
        "bytes_written": manifests_bytes,
        "sha256_equal": sha_equal,
        "sha256_total": sha_total,
    }


def write_configs(workload, seed: int, pass_index: int, directory: Path) -> list:
    """Config files of one pass, as `openchaos run` would read them."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, cfg in enumerate(configs(workload, seed, pass_index)):
        path = directory / f"p{pass_index}_c{k}.json"
        path.write_text(json.dumps(cfg))
        paths.append(path)
    return paths


def resolved_configs(cli, config_paths) -> list:
    out = []
    for path in config_paths:
        d = dataclasses.asdict(cli.load_config(path))
        d.pop("output_dir")
        out.append(d)
    return out


def load_reference(workload, seed, resolved):
    """The recorded reference if it applies to this seed; raises if it is missing or stale."""
    if seed != DEFAULT_SEED:
        return None
    ref = checks.load_reference(REFERENCE_DIR / f"{workload.name}.json.gz")
    if ref is None:
        raise RuntimeError(f"no reference recorded for {workload.name}")
    if ref["configs"] != resolved:
        raise RuntimeError(f"the reference for {workload.name} was recorded for other configs")
    return ref


# ---------------------------------------------------------------------------
# main


def run_passes(cli, workload, seed, seconds, work: Path, reference, tracer) -> list:
    """Closed loop: passes one after another until `seconds` are over (at least MIN_PASSES).

    With a tracer, even passes are traced and odd ones are not, so the two
    kinds see the same machine conditions and their difference is the
    tracing overhead.
    """
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            break
        if passes and elapsed + max(p["wall_s"] for p in passes) > PASS_BUDGET_S:
            break
        index = len(passes)
        traced = tracer is not None and index % 2 == 0
        child_cpu0 = sum(os.times()[2:4])
        if traced:
            tracer.reset()
            tracer.install()
        try:
            record = run_pass(
                cli, workload, write_configs(workload, seed, index, work / "configs"),
                work / f"pass{index}", reference if index == 0 else None,
            )
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        if traced:
            record["layers"] = tracing.layer_metrics(tracer.spans)
            children_ran = sum(os.times()[2:4]) > child_cpu0 or bool(multiprocessing.active_children())
            idle = [layer for layer in tracing.LAYERS if record["layers"][f"{layer}.calls"] == 0]
            record["unseen_layers"] = idle if children_ran else []
            record["absent_layers"] = [] if children_ran else idle
            record["spans"] = len(tracer.spans)
        passes.append(record)
    return passes


def end_to_end_metrics(passes, setup) -> dict:
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    med = statistics.median
    return {
        "wall_s": med(p["wall_s"] for p in passes),
        "setup_s": med(setup),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "samples_per_s": med(p["samples_per_s"] for p in passes),
    }


def per_layer_metrics(passes) -> dict:
    med = statistics.median
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics = {name: med(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    # Artifact sizes depend on the digits of the numbers, so take the seed's own pass.
    metrics["cli.bytes_written"] = passes[0]["bytes_written"]
    metrics["trace.overhead"] = med(p["wall_s"] for p in traced) / med(p["wall_s"] for p in untraced) - 1.0
    metrics["trace.unseen_layers"] = max(len(p["unseen_layers"]) for p in traced)
    return metrics


def run_all(args) -> int:
    """Every workload, each in a fresh process so set-up time and peak memory stay its own."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """openchaos.cli from this checkout's src/, or None if the checkout has no library."""
    if not (SRC / "openchaos" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import openchaos.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        return None
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cli = import_library()
    if cli is None:
        return _die(f"no openchaos source under {SRC}; run from the root of a checkout")

    run_id = f"{workload.name}-seed{seed}-trace{args.trace}"
    work = OUT / run_id
    shutil.rmtree(work, ignore_errors=True)
    config_paths = write_configs(workload, seed, 0, work / "configs")
    resolved = resolved_configs(cli, config_paths)
    try:
        reference = load_reference(workload, seed, resolved)
    except RuntimeError as exc:
        return _die(str(exc))

    setup = measure_setup(config_paths) if args.trace == 0 else []

    tracer = tracing.Tracer() if args.trace else None
    passes = run_passes(cli, workload, seed, args.seconds, work, reference, tracer)
    if args.trace == 0:
        metrics, units = end_to_end_metrics(passes, setup), END_TO_END_UNITS
    else:
        metrics = per_layer_metrics(passes)
        units = {name: _metric_unit(name) for name in metrics}
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    result = {
        "correct": failed == 0 and not any(p["errors"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }

    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(workload, seed),
        "configs": resolved,
        "pass_seeds": [pass_seed(seed, p) for p in range(len(passes))],
        "setup_s_samples": setup,
        "passes": passes,
        "reference_applied": reference is not None,
        "sha256_equal": sum(p["sha256_equal"] for p in passes),
        "sha256_total": sum(p["sha256_total"] for p in passes),
        "result": result,
    }
    if args.trace:
        details["absent_layers"] = sorted({x for p in passes if p["traced"] for x in p["absent_layers"]})
        details["unseen_layers"] = sorted({x for p in passes if p["traced"] for x in p["unseen_layers"]})
        details["missing_sites"] = tracer.missing
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run_id}.json").write_text(json.dumps(details, indent=1, default=str))
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}  seed {seed}  workers {workload.workers}  passes {len(passes)}"
          f"  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {units[name]}")
    print(f"  {'ops_attempted':44s} {attempted:>14d} count")
    print(f"  {'ops_failed':44s} {failed:>14d} count")
    if reference is not None:
        print(f"  artifact sha256 equal to reference: {details['sha256_equal']}/{details['sha256_total']}")
    if args.trace:
        print(f"  absent layers: {', '.join(details['absent_layers']) or 'none'}")
        if details["unseen_layers"]:
            print(f"  layers possibly run in child processes: {', '.join(details['unseen_layers'])}")
        if tracer.missing:
            print(f"  sites gone from the library: {', '.join(tracer.missing)}")
    for p in passes:
        for prob in p["problems"][:3]:
            print(f"  FAILED config {prob['config']} {prob['op']}: {prob['problems'][0]}")
        for err in p["errors"][:1]:
            print("  run error: " + err.strip().splitlines()[-1])
    print(f"  details: {(results_dir / (run_id + '.json')).relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
