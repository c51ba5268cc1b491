#!/usr/bin/env python3
"""Count the traffic of every cached operator builder over shipped runs.

Each scenario runs through ``quasikin simulate``, and each scenario with a
[sweep] section also through ``quasikin sweep``, all in this one process
(a sweep's members share it, as they do under the CLI).  Every cache is
cleared before each run; after it, one row per cached builder gives its
misses, hits and the entries it holds, next to its bound.  A builder is any
attribute of a quasikin module that has ``cache_info``.  The outputs go to
a temporary directory.

Example:
    python3 scripts/cache_traffic.py
    python3 scripts/cache_traffic.py --config scenarios/quasineutral_d1.cfg
"""

import argparse
import contextlib
import importlib
import io
import pkgutil
import sys
import tempfile
from pathlib import Path

import quasikin
from quasikin.cli import main as cli_main
from quasikin.config import load_config

REPO = Path(__file__).resolve().parents[1]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--config",
        nargs="+",
        default=sorted(str(path) for path in (REPO / "scenarios").glob("*.cfg")),
        help="scenario files (default: every shipped scenario)",
    )
    return p.parse_args()


def cached_builders() -> dict:
    """Every cached callable of the package, by its defining module and name."""
    found = {}
    for info in pkgutil.iter_modules(quasikin.__path__):
        module = importlib.import_module(f"quasikin.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                found[f"{value.__module__.split('.')[-1]}.{value.__qualname__}"] = value
    return dict(sorted(found.items()))


def main() -> int:
    args = parse_args()
    builders = cached_builders()
    runs = []
    for path in args.config:
        runs.append(("simulate", path))
        if load_config(path).sweep_epsilons:
            runs.append(("sweep", path))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for number, (verb, path) in enumerate(runs):
            for builder in builders.values():
                builder.cache_clear()
            out = Path(tmp) / f"run_{number}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([verb, "--config", path, "--output", str(out)])
            failed += code != 0
            print(f"\n{verb} {Path(path).name} (exit {code})")
            print("| builder | misses | hits | held | bound |")
            print("|---|---:|---:|---:|---:|")
            for name, builder in builders.items():
                info = builder.cache_info()
                if info.misses or info.hits:
                    print(f"| `{name}` | {info.misses} | {info.hits} | "
                          f"{info.currsize} | {info.maxsize} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
