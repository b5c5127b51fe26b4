"""Digests of what each benchmark workload outputs, to show that a change
leaves them byte-identical.

    python3 tools/output_digest.py --seed 1
    python3 tools/output_digest.py --seed 2 --size tiny

For each workload of ``bench/workloads.py``, in a fixed order, it runs
``setup`` and one ``run`` in a fresh temporary directory and prints one JSON
line: the workload, seed and size, ``eval_loss`` as ``float.hex``, and
sha256 digests of the outputs.

- ``distill-small``: the per-step metric records and the trained weights.
- ``rank-toy``: the ranked candidate manifest.
- ``compress-cli``: every file the commands leave in the work directory,
  and every command's argv, exit code, stdout and stderr, with the work
  directory's path replaced by ``<workdir>``.

The workloads and the package are imported from the checkout this script
sits in. ``--against DIR`` compares two revisions: it runs the digest, each
in a fresh interpreter under this process's environment, on this checkout
and on DIR's ``src/`` and ``bench/`` (for example a ``git archive`` export
of the parent), prints each pair of lines that differ and exits 1 on any
difference (0, printing nothing, when all agree):

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/output_digest.py --seed 1 --against ../parent
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = ("distill-small", "rank-toy", "compress-cli")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def weights_digest(model) -> str:
    h = hashlib.sha256()
    for name in sorted(model.params):
        arr = model.params[name].data
        h.update(f"{name} {arr.dtype} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def digest(workload, output, workdir: str) -> dict:
    """The workload-specific digests of one run's ``output``."""
    if workload.name == "distill-small":
        return {"metrics": sha256(json.dumps(output, sort_keys=True).encode()),
                "weights": weights_digest(workload.trained)}
    if workload.name == "rank-toy":
        return {"manifest": sha256(output[1].to_json().encode())}
    files = {name: sha256((Path(workdir) / name).read_bytes())
             for name in sorted(os.listdir(workdir))}
    lines = json.dumps([[c.argv, c.code, c.stdout, c.stderr] for c in workload.commands(output)])
    return {"files": files, "commands": sha256(lines.replace(workdir, "<workdir>").encode())}


def print_digests(root, seed: int, size: str) -> None:
    """Print one digest line per workload of the checkout at ``root``."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "bench")]
    import workloads

    for name in ORDER:
        workload = workloads.WORKLOADS[name](tiny=size == "tiny")
        with tempfile.TemporaryDirectory() as workdir:
            workload.setup(seed, workdir)
            output = workload.run()
            line = {"workload": name, "seed": seed, "size": size,
                    "eval_loss": float(workload.eval_loss(output)).hex(),
                    **digest(workload, output, workdir)}
        print(json.dumps(line), flush=True)


def digest_lines(root, seed: int, size: str) -> list[str]:
    """The lines :func:`print_digests` prints for ``root``, from a fresh
    interpreter, so two checkouts never share an imported module."""
    code = ("import runpy, sys; root, seed, size = sys.argv[2:]; "
            "runpy.run_path(sys.argv[1])['print_digests'](root, int(seed), size)")
    run = subprocess.run([sys.executable, "-c", code, __file__, str(root), str(seed), size],
                         stdout=subprocess.PIPE, text=True, check=True)
    return run.stdout.splitlines()


def differing(ours: list[str], theirs: list[str]) -> list[tuple[str, str]]:
    """The pairs of lines at one position that differ; a missing line is ``""``."""
    return [(a, b) for a, b in itertools.zip_longest(ours, theirs, fillvalue="") if a != b]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--against", type=Path, metavar="DIR",
                   help="checkout whose src/ and bench/ to compare this one's lines with")
    args = p.parse_args(argv)
    if args.against is None:
        print_digests(ROOT, args.seed, args.size)
        return 0
    pairs = differing(digest_lines(ROOT, args.seed, args.size),
                      digest_lines(args.against, args.seed, args.size))
    for ours, theirs in pairs:
        print(f"this: {ours}\n{args.against}: {theirs}")
    return 1 if pairs else 0


if __name__ == "__main__":
    sys.exit(main())
