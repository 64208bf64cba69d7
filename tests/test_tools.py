import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(exit_code=0, stdout="", stderr="", files=None):
    return {"argv": "x", "exit": exit_code, "stdout": stdout, "stderr": stderr,
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
            "1 commands, 0 in one manifest only; differing: 0 exit codes, "
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
            "4 commands, 2 in one manifest only; differing: 1 exit codes, "
            "1 stdout, 1 stderr, 2 file hashes",
        ]

    def test_usage_error(self, capsys):
        assert load_tool("manifest_diff").main(["only_one.json"]) == 2
