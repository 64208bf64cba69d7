import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(exit_code=0, stdout="", stderr="", files=None, argv="x"):
    return {"argv": argv, "exit": exit_code, "stdout": stdout, "stderr": stderr,
            "files": files or {}}


class TestManifestDiff:
    def run(self, a, b, tmp_path, capsys):
        paths = []
        for name, manifest in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(json.dumps(manifest), encoding="utf-8")
            paths.append(str(tmp_path / name))
        rc = load_tool("manifest_diff").main(paths)
        return rc, capsys.readouterr().out.splitlines()

    def test_identical_manifests(self, tmp_path, capsys):
        m = {"ess": entry(stdout="ess=3\n", files={"ess.json": "ab" * 32})}
        rc, lines = self.run(m, m, tmp_path, capsys)
        assert rc == 0
        assert lines == [
            "1 commands, 0 in one manifest only; differing: 0 argv, 0 exit codes, "
            "0 stdout, 0 stderr, 0 file hashes"
        ]

    def test_reports_each_kind_of_difference(self, tmp_path, capsys):
        a = {
            "ess": entry(stdout="n=5\ness=3.0\n", files={"ess.json": "a" * 64, "gone.csv": "c" * 64}),
            "fit": entry(),
            "old": entry(),
        }
        b = {
            "ess": entry(stdout="n=5\ness=3.5\n", files={"ess.json": "b" * 64}),
            "fit": entry(exit_code=1, stderr="fit failed\n"),
            "new": entry(),
        }
        rc, lines = self.run(a, b, tmp_path, capsys)
        assert rc == 1
        assert lines == [
            "ess",
            "  stdout:",
            "    -ess=3.0",
            "    +ess=3.5",
            "  file ess.json: aaaaaaaaaaaa -> bbbbbbbbbbbb",
            "  file gone.csv: cccccccccccc -> -",
            "fit",
            "  exit: 0 -> 1",
            "  stderr:",
            "    +fit failed",
            "new: only in B",
            "old: only in A",
            "4 commands, 2 in one manifest only; differing: 0 argv, 1 exit codes, "
            "1 stdout, 1 stderr, 2 file hashes",
        ]

    def test_reports_an_argv_difference(self, tmp_path, capsys):
        # outputs alike, but from another command line
        a = {"ess": entry(argv="ess --input <TMP>/field.csv --bins 7")}
        b = {"ess": entry(argv="ess --input <TMP>/field.csv --bins 9")}
        rc, lines = self.run(a, b, tmp_path, capsys)
        assert rc == 1
        assert lines == [
            "ess",
            "  argv:",
            "    -ess --input <TMP>/field.csv --bins 7",
            "    +ess --input <TMP>/field.csv --bins 9",
            "1 commands, 0 in one manifest only; differing: 1 argv, 0 exit codes, "
            "0 stdout, 0 stderr, 0 file hashes",
        ]

    def test_usage_error(self, capsys):
        assert load_tool("manifest_diff").main(["only_one.json"]) == 2


SMALL_MODULE = '''import os


def sign(x):
    if x < 0:
        return -1
    return 1


def workers():
    try:
        threads = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        threads = os.cpu_count() or 1
    return threads
'''


class TestUntestedLines:
    def run(self, tmp_path, test_body):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "small.py").write_text(SMALL_MODULE, encoding="utf-8")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_small.py").write_text(
            "from small import sign, workers\n\n\ndef test_small():\n" + test_body,
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "untested_lines.py"), "--source", "src",
             "-q", "-p", "no:cacheprovider", "tests"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout.splitlines()

    def test_reports_a_line_that_no_test_runs(self, tmp_path):
        rc, lines = self.run(tmp_path, "    assert sign(2) == 1\n    assert workers() >= 1\n")
        assert rc == 1
        assert lines[-4:] == [
            f"src{os.sep}small.py:6: return -1",
            f"src{os.sep}small.py:13: except AttributeError:  # platforms without CPU affinity"
            " (allowed)",
            f"src{os.sep}small.py:14: threads = os.cpu_count() or 1 (allowed)",
            "3 untested lines, 2 of them allowed",
        ]

    def test_passes_when_only_allowed_lines_are_untested(self, tmp_path):
        rc, lines = self.run(
            tmp_path, "    assert sign(-2) == -1\n    assert sign(2) == 1\n    assert workers() >= 1\n"
        )
        assert rc == 0
        assert lines[-1] == "2 untested lines, 2 of them allowed"
