#!/usr/bin/env bash
# Reachability report: every `pub` fn, struct, enum, trait and type alias
# under crates/*/src whose name no other library code uses.
#
# Usage:
#   ./scripts/reachability.sh            # from anywhere in the repository
#
# An item is reachable when its name appears in another crate's src/, the
# root src/, or examples/ (above each file's first `#[cfg(test)]`, comments
# stripped). This cut differs from scripts/loc.sh's on purpose: where a
# file's first `#[cfg(test)]` marks a field or helper above its test module
# (core's system.rs and dynamics.rs, netsim's topology.rs, gpsr's
# planar.rs), the code below it is read as test code. Cutting at the test
# module instead newly lists four public return types that are named only
# inside their own crate (`RepairTask`, `Notification`, `InsertReceipt`,
# `NodesIter`) as used nowhere else, which would fail the gate; it waits
# for a change that decides what to do with them. Every other item is listed, one per line, with where else its
# name appears: `tests` (tests/, crates/*/tests/ and the `#[cfg(test)]`
# tails of src files), `benchmark` (benchmark/), both, or `-` for nowhere
# but its own crate's library code. The match is by name, so a common
# name (`new`, `len`)
# reads as reachable when it may not be: the list under-reports, never
# over-reports.
#
# A trait named in the supertrait list of a `pub trait` counts as used
# wherever that trait is used: `pub trait Transport: ... + TransportClone`
# makes every use of `Transport` a use of `TransportClone`, though no code
# outside its crate spells the supertrait's name.
#
# A gate that may only fall: the script exits 1 when more items are used
# nowhere else than MAX_UNUSED below. Deleting dead code lowers the count;
# lower the constant with it.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import pathlib
import sys
import re

# Items used nowhere but their own crate's library code, at most.
MAX_UNUSED = 34

ITEM = re.compile(r"^\s*pub\s+(?:const\s+|unsafe\s+|async\s+)*(fn|struct|enum|trait|type)\s+([A-Za-z_]\w*)")
IDENT = re.compile(r"[A-Za-z_]\w*")
# `pub trait Name: Super + Other {`, possibly across lines.
SUPERTRAITS = re.compile(r"\bpub\s+trait\s+([A-Za-z_]\w*)\s*:([^{;]*)\{")


def split(path):
    """(code above the first #[cfg(test)], code below it), comments stripped."""
    lines = [line.split("//", 1)[0] for line in path.read_text().splitlines()]
    cut = next((i for i, line in enumerate(lines) if "#[cfg(test)]" in line), len(lines))
    return "\n".join(lines[:cut]), "\n".join(lines[cut:])


def idents(text):
    return set(IDENT.findall(text))


crates = sorted(p.parent for p in pathlib.Path("crates").glob("*/src"))
lib_uses, test_uses = {}, {}  # crate (None: outside crates/) -> identifiers
items = []
subtraits = {}  # supertrait name -> the pub traits that list it
for crate in crates:
    lib_uses[crate], test_uses[crate] = set(), set()
    for path in sorted((crate / "src").rglob("*.rs")):
        above, below = split(path)
        lib_uses[crate] |= idents(above)
        test_uses[crate] |= idents(below)
        for trait, supers in SUPERTRAITS.findall(above):
            for name in idents(supers):
                subtraits.setdefault(name, set()).add(trait)
        for number, line in enumerate(above.splitlines(), 1):
            m = ITEM.match(line)
            if m:
                items.append((crate, f"{path}:{number}", m.group(1), m.group(2)))
    for path in sorted(crate.glob("tests/**/*.rs")):
        test_uses[crate] |= idents(path.read_text())

outside_lib = set()
for root in ("src", "examples"):
    for path in sorted(pathlib.Path(root).rglob("*.rs")):
        above, below = split(path)
        outside_lib |= idents(above)
        test_uses.setdefault(None, set()).update(idents(below))
for path in sorted(pathlib.Path("tests").rglob("*.rs")):
    test_uses.setdefault(None, set()).update(idents(path.read_text()))
bench_uses = set()
for path in sorted(pathlib.Path("benchmark").rglob("*.rs")):
    if "target" not in path.parts:
        bench_uses |= idents(path.read_text())

def used_in(names, uses):
    """Whether one of `names` (an item and its subtraits) appears in `uses`."""
    return any(name in uses for name in names)


listed = []
for crate, where, kind, name in items:
    other_lib = outside_lib.union(*(u for c, u in lib_uses.items() if c != crate))
    names = {name} | subtraits.get(name, set())
    if used_in(names, other_lib):
        continue
    by_tests = any(used_in(names, uses) for uses in test_uses.values())
    by_bench = used_in(names, bench_uses)
    mark = {(True, True): "tests+benchmark", (True, False): "tests",
            (False, True): "benchmark"}.get((by_tests, by_bench), "-")
    listed.append((where, kind, name, mark))

for where, kind, name, mark in listed:
    print(f"{where:<48} {kind:<6} {name:<44} {mark}")
count = lambda m: sum(1 for *_, mark in listed if mark == m)
print(
    f"\n{len(items)} pub items under crates/*/src; {len(listed)} unused by other library code: "
    f"{count('-')} used nowhere else, {count('tests')} only by tests, "
    f"{count('benchmark')} only by benchmark/, {count('tests+benchmark')} by both"
)
if count("-") > MAX_UNUSED:
    sys.exit(
        f"reachability: {count('-')} items used nowhere else, above the gate's {MAX_UNUSED}: "
        "use or delete the new ones (the list above marks them '-')"
    )
EOF
