#!/usr/bin/env python3
"""Which outputs of two `scripts/output_digest.py` directories differ, and by how much.

    python scripts/output_diff.py A B

A and B are OUTDIRs of `output_digest.py`, written by two trees. For every
file whose bytes differ it prints one line

    path  changed/total rows|fields  max rel R

where R is the largest relative change |a - b| / max(|a|, |b|) over the
numeric CSV cells or JSON number leaves (inf where a text value, the header
or the number of rows differs), and changed/total counts the CSV data rows
or the JSON leaves that differ. `manifest.json` is skipped, and
`summary.json` is compared without its per-run wall times (`elapsed`), as
`output_digest.py` hashes it. A file in only one directory is listed as
such. Prints nothing when the outputs are the same.
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _rel(a, b) -> float:
    """Relative change from a to b; inf unless both are numbers."""
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numeric:
        return 0.0 if a == b else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, obj


def _json_diff(a: bytes, b: bytes, name: str):
    """(changed leaves, total leaves, max relative change)."""
    ja, jb = json.loads(a), json.loads(b)
    if name == "summary.json":
        ja.pop("elapsed", None)
        jb.pop("elapsed", None)
    la, lb = dict(_leaves(ja)), dict(_leaves(jb))
    rels = [_rel(la.get(k), lb.get(k)) for k in la.keys() | lb.keys()]
    changed = [r for r in rels if r > 0]
    return len(changed), len(rels), max(changed, default=0.0)


def _csv_diff(a: bytes, b: bytes):
    """(changed data rows, data rows, max relative change)."""
    ra = list(csv.reader(io.StringIO(a.decode())))
    rb = list(csv.reader(io.StringIO(b.decode())))
    worst = 0.0 if ra[:1] == rb[:1] and len(ra) == len(rb) else math.inf
    changed = abs(len(ra) - len(rb)) + (ra[:1] != rb[:1])
    for row_a, row_b in zip(ra[1:], rb[1:]):
        if row_a != row_b:
            changed += 1
            cells = [_rel(_number(x), _number(y)) for x, y in zip(row_a, row_b)]
            worst = max(worst, *cells, 0.0 if len(row_a) == len(row_b) else math.inf)
    return changed, max(len(ra), len(rb)) - 1, worst


def compare(a_dir: Path, b_dir: Path) -> list[str]:
    """One line per output file that differs between the two directories."""
    names = {p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()}
    names |= {p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file()}
    lines = []
    for rel in sorted(names):
        if rel.name == "manifest.json":
            continue
        pa, pb = a_dir / rel, b_dir / rel
        if not (pa.is_file() and pb.is_file()):
            lines.append(f"{rel}  only in {a_dir if pa.is_file() else b_dir}")
            continue
        a, b = pa.read_bytes(), pb.read_bytes()
        if a == b:
            continue
        if rel.suffix == ".json":
            changed, total, worst = _json_diff(a, b, rel.name)
            unit = "fields"
        elif rel.suffix == ".csv":
            changed, total, worst = _csv_diff(a, b)
            unit = "rows"
        else:
            lines.append(f"{rel}  bytes differ")
            continue
        if changed or rel.name != "summary.json":
            lines.append(f"{rel}  {changed}/{total} {unit}  max rel {worst:.2g}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()
    for line in compare(Path(args.a), Path(args.b)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
