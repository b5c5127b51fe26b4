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
sits in. To compare two revisions, export each (``git archive``), copy this
script into both, run it in each under the same environment and diff the
lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    for name in ORDER:
        workload = workloads.WORKLOADS[name](tiny=args.size == "tiny")
        with tempfile.TemporaryDirectory() as workdir:
            workload.setup(args.seed, workdir)
            output = workload.run()
            line = {"workload": name, "seed": args.seed, "size": args.size,
                    "eval_loss": float(workload.eval_loss(output)).hex(),
                    **digest(workload, output, workdir)}
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
