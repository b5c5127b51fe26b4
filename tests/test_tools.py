import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest_lines(seed: int) -> list[str]:
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), "--seed", str(seed),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return run.stdout.splitlines()


def test_output_digest_is_one_stable_line_per_workload():
    first = digest_lines(1)
    assert digest_lines(1) == first  # temporary paths and run order leave no trace
    lines = [json.loads(line) for line in first]
    assert [line["workload"] for line in lines] == ["distill-small", "rank-toy", "compress-cli"]
    distill, rank, compress = lines
    for line in lines:
        assert line["seed"] == 1 and line["size"] == "tiny"
        assert math.isfinite(float.fromhex(line["eval_loss"]))
    digests = [distill["metrics"], distill["weights"], rank["manifest"], compress["commands"],
               *compress["files"].values()]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)
    assert {"source.ckpt", "report.json", "candidates.json"} <= set(compress["files"])
    assert sum(name.endswith(".ckpt") for name in compress["files"]) > 1  # pruned candidates
