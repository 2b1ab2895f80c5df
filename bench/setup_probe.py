"""One timed set-up: import haarfactor and build one workload's inputs.

``run.py`` starts this script in a fresh interpreter and times it from the
spawn to the line it prints, the sha256 of the generated inputs.  Usage:
``python3 bench/setup_probe.py <workload> <seed>``.
"""

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)


def inputs_digest(work: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((work / "in").iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    scratch = BENCH / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workloads.build(name, seed, work)
        print(inputs_digest(work), flush=True)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
