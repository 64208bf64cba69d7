"""Print a JSON manifest of a fixed ``fess`` CLI session.

Usage: python tools/cli_manifest.py SRC_DIR > manifest.json

Every command runs in a fresh interpreter with ``PYTHONPATH=SRC_DIR``, on
seeded inputs built here with numpy only. For each command the manifest
records the exit code, stdout and stderr (the session's temporary
directory replaced by ``<TMP>``) and the sha256 of every file it wrote.
The ``<input>/in_process`` entries instead run ``variogram`` and three
``ess`` steps on one input through ``fess.cli.main`` in one interpreter,
so the later steps reuse what the earlier ones kept in memory: the
second ``ess`` fills the ESS sum's kept distances and the third reads
them. The ``switch/in_process`` entry puts an ``ess`` on other sites
between a ``variogram`` and three ``ess`` steps on one input, so those
steps start again from nothing kept. The ``large/in_process_t2`` entry
runs those four steps on the large input with ``--threads 2``, so both
kept tables are filled and read on 2 workers. The ``levels22`` and
``levels23`` inputs carry curves on 22 and 23 levels, so the variogram's
lane kernel runs its groups of 8 levels, and on 23 an odd last level,
cold and warm. The ``levels22_odd`` input's 601 sites, an odd count,
are gathered with an unused padding column, and its pair blocks are
taller than a row tile. Their files are recorded
under the step that wrote them, and the exit code is the first non-zero
step's.
Two source trees whose manifests are identical give byte-identical CLI
results on this session, so a refactor is checked against its base
commit with
``python tools/manifest_diff.py BASE.json HEAD.json``, which lists each
difference and exits 1 on any.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PLACEHOLDER = "<TMP>"
FAMILIES = ("exponential", "spherical", "gaussian")
INPUTS = (
    "field", "duplicated", "constant", "iid", "large", "levels22", "levels23", "levels22_odd",
)
LEVELS = [str(10 * (i + 1)) for i in range(6)]

# Runs each argv of the JSON list in sys.argv[1] through fess.cli.main in
# this one interpreter and exits with the first non-zero exit code.
IN_PROCESS = """
import json, sys
from fess.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.exit(next((c for c in codes if c), 0))
"""


def write_field_csv(
    path: Path, seed: int, n: int, repeat_shift: float | None = None,
    kind: str = "correlated", levels: int = 6,
) -> None:
    """Lon/lat wide CSV with curves on ``levels`` levels, labelled 10, 20, ...

    ``kind`` is ``"correlated"`` (spatially correlated), ``"iid"``
    (independent N(0, 1) values), ``"constant"`` (one curve at every
    site) or ``"signed_zero"`` (integers, mostly 0, 1 and 2, each zero
    written as ``0.0`` or ``-0.0`` at random). With ``repeat_shift``, the
    second third of the sites repeats the first, moved east by that many
    degrees.
    """
    rng = np.random.default_rng(seed)
    lons = rng.uniform(-150.0, -140.0, size=n)
    lats = rng.uniform(36.0, 44.0, size=n)
    if repeat_shift is not None:
        k = n // 3
        lons[k:2 * k] = lons[:k] + repeat_shift
        lats[k:2 * k] = lats[:k]
    base = rng.standard_normal(levels)
    if kind == "iid":
        curves = rng.standard_normal((n, levels))
    elif kind == "constant":
        curves = np.tile(base, (n, 1))
    elif kind == "signed_zero":
        curves = rng.choice([-1.0, 0.0, 1.0, 2.0, 3.0], p=[0.05, 0.45, 0.25, 0.2, 0.05],
                            size=(n, levels))
        zeros = curves == 0.0
        curves[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    else:
        curves = base * np.sin(lons / 3.0 + lats)[:, None] + 0.3 * np.cumsum(
            rng.standard_normal((n, levels)), axis=1
        )
    lines = [",".join(["lon", "lat"] + [str(10 * (i + 1)) for i in range(levels)])]
    for lon, lat, row in zip(lons, lats, curves):
        lines.append(",".join([f"{lon:.8f}", f"{lat:.8f}"] + [f"{v:.10f}" for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_edge_csv(path: Path, seed: int, n: int) -> None:
    """The correlated lon/lat CSV of ``write_field_csv`` in the layouts the
    loader must read alike: a byte-order mark, CRLF line ends, blank lines,
    quoted and space-padded cells, every other longitude in the 0..360
    convention, the first site repeated in the last row, and a text column
    that a schema reading the ``LEVELS`` columns leaves unread.
    """
    write_field_csv(path, seed, n)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    out = ["\ufeff" + header + ",station", ""]
    for k, line in enumerate(rows):
        cells = line.split(",")
        if k % 2:
            cells[0] = f"{float(cells[0]) + 360.0:.8f}"
        if k == len(rows) - 1:
            cells[:2] = rows[0].split(",")[:2]
        if k % 3 == 0:
            cells = [f'"{c}"' for c in cells]
        elif k % 7 == 0:
            cells[2] = f" {cells[2]} "
        cells.append(f'"buoy {k}, line ""{k % 4}"""')
        out.append(",".join(cells))
        if k % 10 == 9:
            out.append("")
    path.write_bytes(("\r\n".join(out) + "\r\n").encode("utf-8"))


def write_coincident_csv(path: Path, seed: int, n: int) -> None:
    """The correlated lon/lat CSV of ``write_field_csv`` with every row at
    the first row's site."""
    write_field_csv(path, seed, n)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    site = rows[0].split(",")[:2]
    lines = [header] + [",".join(site + line.split(",")[2:]) for line in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def session(tmp: Path) -> list[tuple[str, list[str], bool]]:
    """``(name, argv, writes_to_out_dir)`` for each command, in run order."""
    field, dup, iid, large, edge, edge_schema = (
        str(tmp / f) for f in ("field.csv", "duplicated.csv", "iid.csv", "large.csv",
                               "edge.csv", "edge_schema.json")
    )
    fams = [a for f in FAMILIES for a in ("--family", f)]
    runs = []
    for tag, data in (("field", field), ("duplicated", dup)):
        runs += [
            # the criterion-10 commands (far1 sweep and simulate run once, below)
            (f"{tag}/variogram", ["variogram", "--input", data, "--threads", "1"], True),
            (f"{tag}/ess", ["ess", "--input", data, "--threads", "1"], True),
            (f"{tag}/boxplot", ["boxplot", "--input", data, "--threads", "1"], True),
            (f"{tag}/subsample", ["subsample", "--input", data, "--size", "20", "--reps", "5",
                                  "--seed", "17", "--threads", "1"], True),
            (f"{tag}/variogram_free", ["variogram", "--input", data, "--bins", "9",
                                       "--nugget", "free"], True),
            (f"{tag}/ess3_zero", ["ess", "--input", data] + fams, True),
            (f"{tag}/ess3_free", ["ess", "--input", data, "--nugget", "free"] + fams, True),
            (f"{tag}/ess3_zero_stdout", ["ess", "--input", data, "--bins", "7"] + fams, False),
            (f"{tag}/ess3_free_stdout", ["ess", "--input", data, "--nugget", "free",
                                         "--bins", "7"] + fams, False),
            (f"{tag}/fit", ["fit", "--input",
                            str(tmp / "out" / tag / "variogram" / "empirical_variogram.csv"),
                            "--nugget", "free"], True),
        ]
    # the replicate draws with a seed of three 32-bit words, and with every
    # curve drawn (size == n, whose first Floyd step takes no draw)
    runs += [
        ("field/subsample_seed3w", ["subsample", "--input", field, "--size", "20", "--reps", "5",
                                    "--seed", "18446744073709551621"], True),
        ("field/subsample_all", ["subsample", "--input", field, "--size", "50", "--reps", "5",
                                 "--seed", "17"], True),
    ]
    runs += [
        ("sweep", ["far1", "sweep", "--axis", "lambda0"], True),
        ("simulate", ["far1", "simulate", "--n", "25", "--seed", "5"], True),
        ("simulate/ess3", ["ess", "--input", str(tmp / "out" / "simulate" / "far1_dataset.csv")]
         + fams, False),
        # fit-layer paths: one family, a frozen nugget, few bins
        ("field/fit_gaussian_zero", ["fit", "--input",
                                     str(tmp / "out" / "field" / "variogram"
                                         / "empirical_variogram.csv"),
                                     "--nugget", "zero", "--family", "gaussian"], True),
        ("field/variogram_spherical_free", ["variogram", "--input", field, "--family",
                                            "spherical", "--nugget", "free", "--bins", "5"],
         True),
        # curves that do not vary: the fit raises, ess exits 1; every value
        # is tied, so the boxplot and the subsample replicates take the
        # depth kernel's tie path at every grid point
        ("constant/ess", ["ess", "--input", str(tmp / "constant.csv")], False),
        ("constant/boxplot", ["boxplot", "--input", str(tmp / "constant.csv")], True),
        ("constant/subsample", ["subsample", "--input", str(tmp / "constant.csv"), "--size",
                                "12", "--reps", "40", "--seed", "17"], True),
        # every row at one site: no positive lag to bin, ess exits 2
        ("coincident/ess", ["ess", "--input", str(tmp / "coincident.csv")], False),
        # independent curves at near-repeated sites: the exponential fit
        # pins its range at the lower bound and logs it
        ("iid/variogram", ["variogram", "--input", iid, "--bins", "40"], True),
        ("iid/ess3_stdout", ["ess", "--input", iid, "--bins", "40"] + fams, False),
        ("iid/ess3_free_stdout", ["ess", "--input", iid, "--bins", "40", "--nugget", "free"]
         + fams, False),
        # zeros of both signs at every level, so the central band's lower
        # edge, taken over 20 or more central curves, is a zero at most
        # levels: fboxplot.csv shows which sign the band takes, and the
        # replicates' bands have zero edges too
        ("signed_zero/boxplot", ["boxplot", "--input", str(tmp / "signed_zero.csv")], True),
        ("signed_zero/subsample", ["subsample", "--input", str(tmp / "signed_zero.csv"),
                                   "--size", "15", "--reps", "40", "--seed", "17"], True),
    ]
    # the loader's edge paths (see write_edge_csv); the wrapped longitudes
    # and the repeated site are logged on stderr
    edge_args = ["--input", edge, "--schema", edge_schema]
    runs += [
        ("edge/variogram", ["variogram"] + edge_args, True),
        ("edge/ess3", ["ess"] + edge_args + fams, True),
    ]
    # curves on 22 and 23 levels: the variogram's lane kernel sums groups of
    # 8 levels, and on 23 levels an odd last one; 601 sites on 22 levels
    # gather their rows with an unused column and split each pair block
    # into several row tiles
    for tag in ("levels22", "levels23", "levels22_odd"):
        data = str(tmp / f"{tag}.csv")
        runs += [
            (f"{tag}/variogram", ["variogram", "--input", data], True),
            (f"{tag}/ess3", ["ess", "--input", data] + fams, True),
        ]
    # the variogram pair stage on worker threads: a base tree that runs it
    # serially checks it byte for byte. The large CSV spans 69 pair blocks,
    # enough for 4 workers; the small ones fit in one block.
    for threads in ("2", "8"):
        runs += [
            (f"large/variogram_t{threads}", ["variogram", "--input", large,
                                             "--threads", threads], True),
            (f"large/ess3_t{threads}", ["ess", "--input", large, "--nugget", "free",
                                        "--threads", threads] + fams, True),
        ]
    # subsample replicates scored in batches: 400 of the large CSV's 2400
    # curves on 6 levels make 13 replicates a batch, so 60 replicates span
    # 5 batches and the last one is partial. The small subsample entries
    # fit in one batch. 416 replicates make 32 batches and 832 make 64, in
    # 7 and 13 draw chunks of 65 replicates, each ending in a short
    # chunk; the entries keep the --threads their names carry, which
    # subsample accepts and ignores. Replicate 590 of seed 17 (400 of 2400
    # curves) has a draw that Lemire's method redraws, so
    # large/subsample_t8 also checks the draws' fallback to numpy's
    # per-replicate call.
    runs.append(("large/subsample", ["subsample", "--input", large, "--size", "400",
                                     "--reps", "60", "--seed", "17"], True))
    for threads, reps in (("2", "416"), ("8", "832")):
        runs.append((f"large/subsample_t{threads}",
                     ["subsample", "--input", large, "--size", "400", "--reps", reps,
                      "--seed", "17", "--threads", threads], True))
    return runs


def in_process_sessions(tmp: Path) -> list[tuple[str, list[tuple[str, list[str]]]]]:
    """``(name, steps)`` of each one-interpreter session, its ``(step, argv)``
    in run order."""
    fams = [a for f in FAMILIES for a in ("--family", f)]

    def data(tag):
        return ["--input", str(tmp / f"{tag}.csv")]

    sessions = [
        (f"{tag}/in_process", [
            ("variogram", ["variogram"] + data(tag)),
            ("ess", ["ess"] + data(tag) + fams),
            ("ess_again", ["ess"] + data(tag) + fams),
            ("ess_third", ["ess"] + data(tag) + fams),
        ])
        for tag in INPUTS
    ]
    # the iid sites between two field steps drop what the field's first
    # pass kept; the last three steps keep the field's keys again, fill
    # the tables, then read them
    sessions.append(("switch/in_process", [
        ("variogram", ["variogram"] + data("field")),
        ("ess_iid", ["ess"] + data("iid") + fams),
        ("ess", ["ess"] + data("field") + fams),
        ("ess_again", ["ess"] + data("field") + fams),
        ("ess_third", ["ess"] + data("field") + fams),
    ]))
    # the large CSV's 69 pair blocks on 2 workers, whatever the cores: the
    # first ess fills the slot table, the second the distance table, and
    # the third reads both
    t2 = ["--threads", "2"]
    sessions.append(("large/in_process_t2", [
        ("variogram", ["variogram"] + data("large") + t2),
        ("ess", ["ess"] + data("large") + fams + t2),
        ("ess_again", ["ess"] + data("large") + fams + t2),
        ("ess_third", ["ess"] + data("large") + fams + t2),
    ]))
    return sessions


def file_hashes(out: Path) -> dict[str, str]:
    """sha256 of each file in the directory ``out`` (none if it is missing)."""
    if not out.is_dir():
        return {}
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(p for p in out.iterdir() if p.is_file())
    }


def entry(argv: str, proc: subprocess.CompletedProcess, files: dict, tmp: Path) -> dict:
    return {
        "argv": argv.replace(str(tmp), PLACEHOLDER),
        "exit": proc.returncode,
        "stdout": proc.stdout.replace(str(tmp), PLACEHOLDER),
        "stderr": proc.stderr.replace(str(tmp), PLACEHOLDER),
        "files": files,
    }


def run_session(src: Path, tmp: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), FESS_LOG="WARNING")
    probe = subprocess.run(
        [sys.executable, "-c", "import fess; print(fess.__file__)"],
        cwd=tmp, env=env, capture_output=True, text=True, check=True,
    )
    if not Path(probe.stdout.strip()).resolve().is_relative_to(src):
        sys.exit(f"fess imports from {probe.stdout.strip()}, not from {src}")
    write_field_csv(tmp / "field.csv", seed=1010, n=50)
    write_field_csv(tmp / "duplicated.csv", seed=2020, n=45, repeat_shift=0.0)
    write_field_csv(tmp / "constant.csv", seed=3030, n=30, kind="constant")
    write_field_csv(tmp / "iid.csv", seed=4002, n=45, repeat_shift=1e-4, kind="iid")
    write_field_csv(tmp / "large.csv", seed=5050, n=2400)
    write_field_csv(tmp / "levels22.csv", seed=2222, n=600, levels=22)
    write_field_csv(tmp / "levels23.csv", seed=2323, n=500, levels=23)
    write_field_csv(tmp / "levels22_odd.csv", seed=6011, n=601, levels=22)
    write_field_csv(tmp / "signed_zero.csv", seed=7070, n=40, kind="signed_zero")
    write_coincident_csv(tmp / "coincident.csv", seed=8080, n=20)
    write_edge_csv(tmp / "edge.csv", seed=6060, n=40)
    (tmp / "edge_schema.json").write_text(json.dumps({"value_columns": LEVELS}))
    manifest = {}
    for name, argv, to_dir in session(tmp):
        out = tmp / "out" / name
        if to_dir:
            argv = argv + ["--out-dir", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "fess.cli"] + argv,
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        manifest[name] = entry(" ".join(argv), proc, file_hashes(out), tmp)
    for name, steps in in_process_sessions(tmp):
        out = tmp / "out" / name
        argvs = [argv + ["--out-dir", str(out / step)] for step, argv in steps]
        proc = subprocess.run(
            [sys.executable, "-c", IN_PROCESS, json.dumps(argvs)],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        files = {
            f"{step}/{name}": digest
            for step, _ in steps
            for name, digest in file_hashes(out / step).items()
        }
        manifest[name] = entry(
            " ; ".join(" ".join(argv) for argv in argvs), proc, files, tmp
        )
    return manifest


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/cli_manifest.py SRC_DIR", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "fess" / "__init__.py").is_file():
        print(f"{src} holds no fess package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_session(src, Path(tmp).resolve())
    json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
