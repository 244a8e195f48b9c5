#!/usr/bin/env python3
"""Check that the library holds only what a binary reaches.

    python3 scripts/check_reachability.py

Builds every example and bench (this CMake project with its tests off) and
perfbench (from perfbench/, its own CMake package) under build/reachability/
at -O0 with -ffunction-sections -fdata-sections, linked with
-Wl,--gc-sections: no call is inlined away, and the linker drops every
function that no entry point reaches. A strong (nm type T) `eotora::` text
symbol of a libeotora_*.a archive that no binary defines is unreached.

scripts/reachability_allowlist.txt names the kept exceptions, at most
MAX_ALLOWED lines of `<regex> # <reason>`; each regex is searched in the
demangled names. The check exits 1 on an unreached symbol that no line
matches and on a line that matches no unreached symbol. Each unreached symbol
asks for one fate: delete it, move it to tests/support if a test needs it as
an oracle or as tooling, or allowlist it with a reason.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "build" / "reachability"
ALLOWLIST = ROOT / "scripts" / "reachability_allowlist.txt"
MAX_ALLOWED = 10
CONFIGURE = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def build(source: Path, build_dir: Path, *extra: str) -> None:
    def run(cmd):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)

    run(["cmake", "-S", str(source), "-B", str(build_dir), *CONFIGURE, *extra])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", str(build_dir), "-j", jobs])


def nm(path: Path):
    """Yields (object member, type, demangled name) of each defined symbol."""
    text = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                          check=True, capture_output=True, text=True).stdout
    member = path.name
    for line in text.splitlines():
        if line.endswith(":") and " " not in line:
            member = line[:-1]
            continue
        fields = line.split(maxsplit=2)
        if len(fields) == 3:
            yield member, fields[1], fields[2]


def is_elf_executable(path: Path) -> bool:
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def read_allowlist():
    entries = []
    if not ALLOWLIST.exists():
        return entries
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        pattern, _, reason = line.partition(" # ")
        if not pattern.strip() or not reason.strip():
            sys.exit(f"{ALLOWLIST.name}:{number}: expected "
                     f"'<regex> # <reason>', got {line!r}")
        entries.append((number, re.compile(pattern.strip()), line))
    if len(entries) > MAX_ALLOWED:
        sys.exit(f"{ALLOWLIST.name} lists {len(entries)} exceptions; "
                 f"at most {MAX_ALLOWED} are allowed")
    return entries


def main() -> int:
    main_build = OUT / "main"
    perf_build = OUT / "perfbench"
    build(ROOT, main_build, "-DEOTORA_BUILD_TESTS=OFF")
    build(ROOT / "perfbench", perf_build)

    library = {}  # name -> "module/member"
    for archive in sorted((main_build / "src").rglob("libeotora_*.a")):
        module = archive.name[len("libeotora_"):-len(".a")]
        for member, kind, name in nm(archive):
            if kind == "T" and name.startswith("eotora::"):
                library[name] = f"{module}/{member}"

    binaries = [p for d in ("examples", "bench")
                for p in sorted((main_build / d).iterdir())
                if is_elf_executable(p)]
    binaries.append(perf_build / "perfbench")
    reached = {name for b in binaries for _, _, name in nm(b)}

    unreached = sorted(set(library) - reached,
                       key=lambda name: (library[name], name))
    allowlist = read_allowlist()
    used = set()
    failures = []
    for name in unreached:
        hits = [number for number, regex, _ in allowlist if regex.search(name)]
        used.update(hits)
        if not hits:
            failures.append(name)
    stale = [line for number, _, line in allowlist if number not in used]

    print(f"{len(binaries)} binaries reach {len(library) - len(unreached)} "
          f"of {len(library)} eotora:: text symbols; {len(unreached)} "
          f"unreached, {len(unreached) - len(failures)} of them allowlisted "
          f"by {len(allowlist)} lines")
    for name in failures:
        print(f"unreached: {library[name]}: {name}")
    for line in stale:
        print(f"stale allowlist line (matches no unreached symbol): {line}")
    if failures or stale:
        print("Give each unreached symbol one fate: delete it, move it to "
              "tests/support if a test needs it, or allowlist it with a "
              f"reason in scripts/{ALLOWLIST.name}; delete stale lines.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
