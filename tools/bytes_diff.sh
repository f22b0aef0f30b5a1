#!/bin/sh
# Compare the report bytes of revision REV with those of the working tree.
#
# Usage (from anywhere inside the repository):
#
#     tools/bytes_diff.sh REV
#
# exports `git archive REV` to a temporary directory, runs
# tools/report_bytes.py on its src and on the working tree's src with one
# shared WORKDIR (the corpus path is part of the corpus report), prints the
# line count of both digest lists and the diff between them, and exits with
# diff's status: 0 when every report is byte-identical.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/old"
git -C "$root" archive "$1" src | tar -x -C "$tmp/old"
python3 "$root/tools/report_bytes.py" "$tmp/old/src" "$tmp/work" > "$tmp/before.txt"
python3 "$root/tools/report_bytes.py" "$root/src" "$tmp/work" > "$tmp/after.txt"
wc -l < "$tmp/before.txt" | sed 's/^/before: /'
wc -l < "$tmp/after.txt" | sed 's/^/after:  /'
diff "$tmp/before.txt" "$tmp/after.txt"
