"""Compare two collapsekit output trees (run or sweep directories).

    python tools/compare_outputs.py A B

Compared, by path relative to each tree's root:
  * every *.csv, byte for byte;
  * every state_*.npz, array by array: same names, dtypes, shapes and bytes;
  * every report.json and sweep_summary.json as parsed JSON, with the timing
    and location fields (duration_s, trace_path) dropped at any depth, then
    re-serialized with sorted keys: a value that changes type (1.0 and 1)
    or sign (0.0 and -0.0) differs, whatever the key order.
A file of these kinds that exists in only one tree is a difference; other
files are not compared. Prints each differing path, then a summary line.
Exits 0 when the trees match, 1 on any difference, and 2 when neither tree
holds a file to compare. Two files match when their sha256 under these rules
(file_digest) match; tree_digests gives them for a whole tree, so a tree can
also be checked against pinned digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

JSON_NAMES = ("report.json", "sweep_summary.json")
DROPPED_KEYS = ("duration_s", "trace_path")


def _compared_files(root: Path) -> set:
    files = set()
    for path in root.rglob("*"):
        if path.is_file() and (
            path.suffix == ".csv"
            or (path.name.startswith("state_") and path.suffix == ".npz")
            or path.name in JSON_NAMES
        ):
            files.add(path.relative_to(root))
    return files


def _drop_timing(value):
    if isinstance(value, dict):
        return {k: _drop_timing(v) for k, v in value.items() if k not in DROPPED_KEYS}
    if isinstance(value, list):
        return [_drop_timing(v) for v in value]
    return value


def file_digest(path: Path) -> str:
    """sha256 of what is compared of an output file; a CSV is read in
    256 KiB chunks, a state file one array at a time."""
    digest = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as npz:
            for name in sorted(npz.files):
                x = npz[name]
                digest.update(f"{name} {x.dtype.str} {x.shape}\n".encode())
                digest.update(x.tobytes())
    elif path.name in JSON_NAMES:
        text = json.dumps(_drop_timing(json.loads(path.read_text())), sort_keys=True)
        digest.update(text.encode())
    else:
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 18), b""):
                digest.update(chunk)
    return digest.hexdigest()


def tree_digests(root: Path) -> dict:
    """Relative path -> file_digest of every compared file under root."""
    return {str(rel): file_digest(root / rel) for rel in sorted(_compared_files(root))}


def compare_trees(root_a: Path, root_b: Path) -> tuple:
    """(files compared, sorted list of differing relative paths)."""
    digests_a, digests_b = tree_digests(root_a), tree_digests(root_b)
    differ = {rel + " (only in one tree)" for rel in digests_a.keys() ^ digests_b.keys()}
    differ.update(rel for rel in digests_a.keys() & digests_b.keys()
                  if digests_a[rel] != digests_b[rel])
    return len(digests_a.keys() | digests_b.keys()), sorted(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    count, differ = compare_trees(args.a, args.b)
    for rel in differ:
        print(f"differs: {rel}")
    print(f"{count} files compared, {len(differ)} differ")
    if count == 0:
        return 2
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
