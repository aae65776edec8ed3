"""tools/bench_record.py exports both sides of a comparison the same way.

The base is a revision and the head is the working tree; each is written
through ``git archive``, so the head holds exactly the files git would
commit from the working tree: tracked edits and untracked files that are
not ignored.
"""
import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def bench_record(tmp_path, monkeypatch):
    """The tool's module, rooted at a throwaway repository with one commit."""
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "src" / "pkg" / "kept.py").write_text("VALUE = 1\n")
    (repo / ".gitignore").write_text("ignored.py\n")

    def git(*args):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "one")
    monkeypatch.setattr(module, "ROOT", repo)
    return module, repo


def test_a_clean_working_tree_exports_as_head(bench_record, tmp_path):
    module, _ = bench_record
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    base_side = module._export("HEAD", base)
    head_side = module._export(None, head)
    assert head_side["based_on"] == base_side["commit"]
    assert head_side["src_sha256"] == base_side["src_sha256"]
    assert (head / "src" / "pkg" / "kept.py").read_text() == "VALUE = 1\n"


def test_the_working_tree_export_holds_what_git_would_commit(bench_record, tmp_path):
    module, repo = bench_record
    pkg = repo / "src" / "pkg"
    (pkg / "kept.py").write_text("VALUE = 2\n")
    (pkg / "new.py").write_text("NEW = 1\n")
    (pkg / "ignored.py").write_text("IGNORED = 1\n")
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    base_side = module._export("HEAD", base)
    head_side = module._export(None, head)
    assert (head / "src" / "pkg" / "kept.py").read_text() == "VALUE = 2\n"
    assert (head / "src" / "pkg" / "new.py").read_text() == "NEW = 1\n"
    assert not (head / "src" / "pkg" / "ignored.py").exists()
    assert head_side["src_sha256"] != base_side["src_sha256"]
    # the repository's own index is left as it was
    status = subprocess.run(["git", "status", "--porcelain"], cwd=repo, check=True,
                            capture_output=True, text=True).stdout.splitlines()
    assert sorted(status) == [" M src/pkg/kept.py", "?? src/pkg/new.py"]
