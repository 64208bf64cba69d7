"""Print the differences between two ``cli_manifest.py`` manifests.

Usage: python tools/manifest_diff.py A.json B.json

For each command, in name order, prints what differs from A to B: the
argv, the exit code, the stdout and stderr lines (as a unified diff without
context) and the sha256 of each written file (first 12 hex digits, or
``-`` for a file that one side did not write). A command present in only
one manifest is reported as such. The last line counts the commands and
the differences of each kind. Exit status: 0 when the manifests agree, 1
when they differ, 2 on a usage error.
"""

from __future__ import annotations

import difflib
import json
import sys


def _short(digest: str | None) -> str:
    return "-" if digest is None else digest[:12]


def diff_entry(a: dict, b: dict) -> tuple[list[str], dict]:
    """Lines describing how command entry ``b`` differs from ``a``, and
    the number of differences of each kind."""
    lines = []
    counts = {"argv": 0, "exit": 0, "stdout": 0, "stderr": 0, "files": 0}
    if a["argv"] != b["argv"]:
        lines += ["  argv:", f"    -{a['argv']}", f"    +{b['argv']}"]
        counts["argv"] = 1
    if a["exit"] != b["exit"]:
        lines.append(f"  exit: {a['exit']} -> {b['exit']}")
        counts["exit"] = 1
    for stream in ("stdout", "stderr"):
        if a[stream] != b[stream]:
            counts[stream] = 1
            lines.append(f"  {stream}:")
            changed = difflib.unified_diff(
                a[stream].splitlines(), b[stream].splitlines(), n=0, lineterm=""
            )
            lines += [f"    {line}" for line in changed if not line.startswith(("---", "+++", "@@"))]
    for name in sorted(set(a["files"]) | set(b["files"])):
        old, new = a["files"].get(name), b["files"].get(name)
        if old != new:
            counts["files"] += 1
            lines.append(f"  file {name}: {_short(old)} -> {_short(new)}")
    return lines, counts


def diff_manifests(a: dict, b: dict) -> tuple[list[str], bool]:
    """The report lines, and whether the manifests differ."""
    lines = []
    totals = {"argv": 0, "exit": 0, "stdout": 0, "stderr": 0, "files": 0}
    only = 0
    for name in sorted(set(a) | set(b)):
        if name not in b or name not in a:
            only += 1
            lines.append(f"{name}: only in {'A' if name in a else 'B'}")
            continue
        entry, counts = diff_entry(a[name], b[name])
        if entry:
            lines += [name] + entry
        for kind, k in counts.items():
            totals[kind] += k
    lines.append(
        f"{len(set(a) | set(b))} commands, {only} in one manifest only; differing: "
        f"{totals['argv']} argv, {totals['exit']} exit codes, {totals['stdout']} stdout, "
        f"{totals['stderr']} stderr, {totals['files']} file hashes"
    )
    return lines, bool(only or any(totals.values()))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/manifest_diff.py A.json B.json", file=sys.stderr)
        return 2
    manifests = []
    for path in argv:
        try:
            with open(path, encoding="utf-8") as fh:
                manifests.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
    lines, differ = diff_manifests(*manifests)
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
