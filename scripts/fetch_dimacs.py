#!/usr/bin/env python3
"""Download the DIMACS p_hat instances used by the acceptance gate and
the optional benchmark rows into data/dimacs/.

Usage:
    python3 scripts/fetch_dimacs.py [--dest data/dimacs] [names...]

Needs direct internet access; sandboxes that only expose package-mirror
traffic cannot run this (the acceptance test then reports SKIP for the
DIMACS criterion).  Files can also be placed in the destination by hand
and pointed at with HYBRIDGRAPH_DIMACS_DIR.

Each download is validated by parsing: the problem line must declare
the expected vertex count for its name.
"""

import argparse
import sys
import urllib.error
import urllib.request
from pathlib import Path

MIRRORS = [
    "https://iridia.ulb.ac.be/~fmascia/files/DIMACS/{name}",
    "https://raw.githubusercontent.com/dynaroars/npbench/main/instances/DIMACS/{name}",
]

# name -> vertex count declared by the published instance
KNOWN = {
    "p_hat300-1.clq": 300,
    "p_hat500-1.clq": 500,
    "p_hat700-1.clq": 700,
    "p_hat700-2.clq": 700,
    "p_hat1500-3.clq": 1500,
}

DEFAULT = ["p_hat700-2.clq", "p_hat1500-3.clq", "p_hat300-1.clq",
           "p_hat700-1.clq"]


def expected_n(name):
    return KNOWN.get(name)


def validate(path, name):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from hybridgraph.instances import read_instance

    spec, warnings = read_instance(path)
    want = expected_n(name)
    if want is not None and spec.n != want:
        raise ValueError(f"{name}: expected {want} vertices, file has {spec.n}")
    return spec, warnings


def fetch(name, dest):
    target = dest / name
    if target.exists():
        print(f"{name}: already present")
        return True
    for mirror in MIRRORS:
        url = mirror.format(name=name)
        try:
            print(f"{name}: trying {url}")
            with urllib.request.urlopen(url, timeout=60) as resp:
                data = resp.read()
        except (urllib.error.URLError, OSError) as exc:
            print(f"  failed: {exc}")
            continue
        target.write_bytes(data)
        try:
            spec, warnings = validate(target, name)
        except Exception as exc:
            print(f"  invalid download: {exc}")
            target.unlink()
            continue
        for w in warnings:
            print(f"  note: {w}")
        print(f"  ok: {spec.n} vertices, {spec.m} edges")
        return True
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", default=None)
    ap.add_argument("--dest", default=None)
    args = ap.parse_args()
    root = Path(__file__).resolve().parents[1]
    dest = Path(args.dest) if args.dest else root / "data" / "dimacs"
    dest.mkdir(parents=True, exist_ok=True)
    names = args.names or DEFAULT
    failures = [name for name in names if not fetch(name, dest)]
    if failures:
        print(f"could not fetch: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
