"""Check that the fast reader tests catch every mutant in tests/mutants.txt.

    python tests/run_mutants.py [MUTANTS_FILE]

Each line of the mutant file is <file> TAB <old text> TAB <new text>; blank
lines and lines that start with # are skipped.  For each mutant the tree is
copied to a temporary directory, the old text (which must occur exactly
once in the file) is replaced by the new, and TESTS run there with pytest
-x.  A mutant that passes them survives.  Exits 0 when every mutant is
killed, 1 naming the survivors, and 2 when the mutant file is malformed or
the unmutated tree fails the tests.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_readers_fuzz.py", "tests/test_audio.py"]
SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache",
                              ".benchmarks", "__pycache__", "perfbench")


def fail(message: str):
    print(message, file=sys.stderr)
    sys.exit(2)


def read_mutants(path: Path) -> list[tuple[int, str, str, str]]:
    """(line number, file, old text, new text) of each mutant; exits 2 on a
    malformed line or an old text that does not occur exactly once."""
    mutants = []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            fail(f"{path}:{n}: expected <file> TAB <old> TAB <new>")
        file, old, new = parts
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            fail(f"{path}:{n}: {old!r} occurs {count} times in {file}")
        mutants.append((n, file, old, new))
    return mutants


def tests_pass(tree: Path) -> bool:
    """Whether TESTS pass on the package under tree/src."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    probe = subprocess.run(
        [sys.executable, "-c", "import whaledet; print(whaledet.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    if not Path(probe.stdout.strip()).is_relative_to(tree):
        fail(f"the tests would import whaledet from {probe.stdout}")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *TESTS], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode == 0


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else ROOT / "tests" / "mutants.txt"
    mutants = read_mutants(path)
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        if not tests_pass(Path(shutil.copytree(ROOT, Path(tmp) / "base",
                                               ignore=SKIP))):
            fail("the unmutated tree fails the tests")
        for k, (n, file, old, new) in enumerate(mutants):
            tree = Path(shutil.copytree(ROOT, Path(tmp) / f"m{k}",
                                        ignore=SKIP))
            target = tree / file
            target.write_text(target.read_text().replace(old, new))
            start = time.perf_counter()
            killed = not tests_pass(tree)
            print(f"{'killed' if killed else 'SURVIVED'} "
                  f"({time.perf_counter() - start:.1f} s) {path.name}:{n} "
                  f"{file}: {old!r} -> {new!r}", flush=True)
            if not killed:
                survivors.append(f"{path.name}:{n}")
            shutil.rmtree(tree)
    if survivors:
        print(f"{len(survivors)} of {len(mutants)} mutants survived: "
              + ", ".join(survivors), file=sys.stderr)
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
