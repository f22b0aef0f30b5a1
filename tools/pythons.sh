#!/bin/sh
# Run the CI's per-version steps on each given interpreter.
#
# Usage (from anywhere inside the repository):
#
#     tools/pythons.sh PYTHON...
#
# e.g. tools/pythons.sh python3.10 python3.12 python3.13.  On each
# interpreter it runs
#
# * the stdlib-only import of .github/workflows/tier1.yml (-I -S, so no
#   site-packages are on the path);
# * tools/json_check.py, also under -I -S, which compares the JSON writer
#   and the corpus row decoder with that version's json module and needs
#   no pytest;
# * tier-1, with the site-packages of the `python3` on PATH appended to
#   PYTHONPATH, so an interpreter without its own pytest borrows those
#   pure-Python packages.  Tier-1 is not run when pytest does not import.
#   It runs with PYTEST_DISABLE_PLUGIN_AUTOLOAD=1, because a plugin borrowed
#   from another version may fail to load (trio's does on 3.13.13, with
#   `TypeError: ('parser', <class 'module'>)` before any test is collected);
#   the tests need no plugin.
#
# It ends with the steps it could not run and exits 1 when a step that ran
# failed.
set -u

if [ $# -eq 0 ]; then
    echo "usage: $0 PYTHON..." >&2
    exit 2
fi
cd "$(git rev-parse --show-toplevel)" || exit 2
site=$(python3 -c 'import sysconfig; print(sysconfig.get_paths()["purelib"])')
path="src:$site"
failed=0
skipped=""
for py in "$@"; do
    if ! version=$("$py" -c 'import platform; print(platform.python_version())' 2>/dev/null); then
        echo "== $py: not found"
        skipped="$skipped
$py: every step (interpreter not found)"
        continue
    fi
    echo "== $py ($version)"
    if "$py" -I -S -c "import sys; sys.path.insert(0, 'src'); import classt, classt.cli, classt.reports, classt.sweep"; then
        echo "stdlib-only import: ok"
    else
        echo "stdlib-only import: FAILED"
        failed=1
    fi
    if out=$("$py" -I -S tools/json_check.py 2>&1); then
        echo "$out"
    else
        printf '%s\n' "$out" | tail -n 5
        echo "json check: FAILED"
        failed=1
    fi
    if ! why=$(PYTHONPATH=$path "$py" -c 'import pytest' 2>&1); then
        why=$(printf '%s\n' "$why" | tail -n 1)
        echo "tier-1: not run ($why)"
        skipped="$skipped
$version: tier-1 ($why)"
        continue
    fi
    if out=$(PYTHONPATH=$path PYTEST_DISABLE_PLUGIN_AUTOLOAD=1 "$py" -m pytest -q --continue-on-collection-errors -p no:cacheprovider 2>&1); then
        echo "tier-1: $(printf '%s\n' "$out" | tail -n 1)"
    else
        printf '%s\n' "$out" | grep -E '^(FAILED|ERROR) '
        echo "tier-1: FAILED: $(printf '%s\n' "$out" | tail -n 1)"
        failed=1
    fi
done
echo "== not run:${skipped:- nothing}"
exit $failed
