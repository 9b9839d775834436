#!/usr/bin/env python3
"""Fails when library code in src/ is reached by no shipped binary.

The shipped binaries are every executable of bench/ and examples/ plus
perfbench's plant_bench. The script configures two separate builds of them
(the repository and `cmake -S perfbench`) with -O0 -ffunction-sections and
links with --gc-sections, so a binary keeps only the functions it can reach.
A function defined out of line in a steelnet library (an `nm` T symbol of a
src/ object) that no binary keeps is called only by tests, or by nothing.

Each such function must be on the allow-list, tools/reachability_allow.txt,
one `<demangled signature> # <reason>` per line. The check fails on any
unreached function that is not listed, and on any listed one that is reached
again or no longer exists, so the list cannot go stale.

    python3 tools/check_reachability.py [--build-dir DIR] [--jobs N]

The build directory defaults to build-reach/ at the repository root.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW_LIST = ROOT / "tools" / "reachability_allow.txt"
FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, text=True, **kw)


def build(cmd):
    """Runs a configure or build step, showing its output only if it fails."""
    r = subprocess.run(cmd, text=True, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stdout.write(r.stdout)
        sys.exit(f"reachability: {' '.join(cmd)} failed")


def cmake_names(pattern, files):
    names = []
    for f in files:
        names += re.findall(pattern, f.read_text())
    return names


def nm(path, types=None):
    """Mangled names of the symbols `path` defines (of `types`, if given)."""
    out = run(["nm", "--defined-only", str(path)], capture_output=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and (types is None or fields[1] in types):
            names.add(fields[2])
    return names


def demangle(names):
    out = run(["c++filt"], input="\n".join(sorted(names)),
              capture_output=True).stdout
    return set(out.splitlines())


def read_allow_list():
    allowed = {}
    for n, line in enumerate(ALLOW_LIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        symbol, sep, reason = line.partition(" # ")
        if not sep or not reason.strip():
            sys.exit(f"{ALLOW_LIST.name}:{n}: entry has no ' # <reason>'")
        allowed[symbol.strip()] = reason.strip()
    return allowed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", type=Path, default=ROOT / "build-reach")
    ap.add_argument("--jobs", type=int, default=min(os.cpu_count() or 1, 4))
    args = ap.parse_args()
    main_dir = args.build_dir / "main"
    bench_dir = args.build_dir / "perfbench"

    shipped_dirs = ["bench", "examples"]
    executables = cmake_names(
        r"add_executable\((\w+)",
        [ROOT / d / "CMakeLists.txt" for d in shipped_dirs])
    libraries = cmake_names(r"add_library\((\w+)",
                            sorted((ROOT / "src").glob("**/CMakeLists.txt")))
    jobs = ["-j", str(args.jobs)]
    build(["cmake", "-S", str(ROOT), "-B", str(main_dir), *FLAGS])
    build(["cmake", "--build", str(main_dir), *jobs, "--target",
           *executables, *libraries])
    build(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bench_dir),
           *FLAGS])
    build(["cmake", "--build", str(bench_dir), *jobs, "--target",
           "plant_bench"])

    binaries = [main_dir / d / name for name in executables
                for d in shipped_dirs if (main_dir / d / name).exists()]
    binaries.append(bench_dir / "plant_bench")
    if len(binaries) != len(executables) + 1:
        sys.exit("reachability: some shipped binary was not built")
    kept = set().union(*(nm(b) for b in binaries))
    libraries_built = sorted((main_dir / "src").glob("**/*.a"))
    defined = set().union(*(nm(a, {"T"}) for a in libraries_built))

    names = demangle(defined - kept)
    allowed = read_allow_list()
    unlisted = sorted(names - allowed.keys())
    stale = sorted(allowed.keys() - names)

    print(f"reachability: {len(defined)} functions defined in src/, "
          f"{len(names)} reached by none of the {len(binaries)} shipped "
          f"binaries, {len(allowed)} allow-listed")
    for name in unlisted:
        print(f"  unreached, not allow-listed: {name}")
    for name in stale:
        print(f"  allow-listed, but reached or gone: {name}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
