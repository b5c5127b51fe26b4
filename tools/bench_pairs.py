"""Alternating parent/change runs of ``bench/run.py``, summarised as one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_11.json
    python3 tools/bench_pairs.py --parent HEAD~1 --out mmap.json --workload distill-small

Both sides are exported with ``git archive`` into sibling directories of one
temporary directory, ``parent/`` and ``change/`` (names of equal length), so
neither runs from a different place than the other. The parent is the given
revision; the change is this working tree's tracked files, uncommitted edits
included (``git stash create``, or ``HEAD`` when the tree is clean);
untracked files are left out. For each workload named by ``--workload``
(repeatable; by default all three of ``bench/run.py``'s, in a fixed order)
and each seed 1-10, both sides run ``bench/run.py --seconds 30 --trace 0`` in
their own process, the parent first on odd seeds and the change first on even
ones. The output file is rewritten after every pair, so an interrupted sweep
keeps what it measured.

Layout: ``meta``, whose ``workloads`` lists the workloads swept;
``summary[workload][metric]`` with each side's median and quartiles,
``change_over_parent``, ``change_wins``, ``ties``, ``pairs`` and
``median_gap_exceeds_parent_iqr``; and ``runs[workload]``, one record per
pair. Which direction is better comes from ``BENCHMARK.json``.

Every run inherits this process's environment. ``meta["malloc_env"]``
records its glibc ``MALLOC_*`` settings, which move ``peak_rss_mb``, so a
sweep such as ``MALLOC_MMAP_THRESHOLD_=131072 python3 tools/bench_pairs.py
...`` says what it ran under.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rank-toy", "distill-small", "compress-cli")
SEEDS = range(1, 11)
SECONDS = 30  # bench/all.sh's default


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--workload", action="append", choices=WORKLOADS, dest="workloads",
                   help="workload to sweep; repeat for several (default: all three)")
    args = p.parse_args(argv)
    args.workloads = [w for w in WORKLOADS if w in (args.workloads or WORKLOADS)]
    return args


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the tree of commit ``sha`` to the new directory ``dest``."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as f:
        subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, stdout=f)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_once(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One ``bench/run.py`` process; returns its result line and environment."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(ln)["environment"] for ln in lines if ln.startswith('{"environment"')), {})
    last = json.loads(lines[-1])
    record = {name: m["value"] for name, m in last["metrics"].items()}
    record.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    return record, env


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        ps, cs = quartiles(par), quartiles(chg)
        out[name] = {
            "parent": ps,
            "change": cs,
            "change_over_parent": cs["median"] / ps["median"],
            "change_wins": wins,
            "ties": ties,
            "pairs": len(par),
            "median_gap_exceeds_parent_iqr":
                sign * (cs["median"] - ps["median"]) < 0
                and abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    shas = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", git("stash", "create") or "HEAD")}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in shas}
        for side, sha in shas.items():
            export(sha, roots[side])
        doc = {
            "meta": {
                **shas,
                "workloads": args.workloads,
                "trees": "git archive exports in sibling directories parent/ and change/ "
                         "of one temporary directory",
                "command": f"python3 bench/run.py --workload <w> --seed <n> --seconds "
                           f"{SECONDS} --trace 0, each run in its own process",
                "pairs": f"{len(SEEDS)} per workload, seeds {SEEDS[0]}-{SEEDS[-1]}; odd seeds "
                         "ran the parent first, even seeds the change first",
                "quartiles": "statistics.quantiles(n=4, method='inclusive') over one side's runs",
                "wins": "ties count for neither side; 'better' per metric from BENCHMARK.json",
                "malloc_env": {k: v for k, v in sorted(os.environ.items())
                               if k.startswith("MALLOC_")},
            },
            "summary": {},
            "runs": {},
        }
        for workload in args.workloads:
            doc["runs"][workload] = []
            for seed in SEEDS:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], env = run_once(roots[side], workload, seed)
                    doc["meta"].setdefault("host", {k: v for k, v in env.items()
                                                    if k not in ("seed", "git_sha")})
                    print(f"{workload} seed {seed} {side}: {pair[side]}", flush=True)
                doc["runs"][workload].append(pair)
                doc["summary"][workload] = summarise(doc["runs"][workload], better)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
