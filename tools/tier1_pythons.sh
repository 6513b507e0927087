#!/bin/sh
# Run the Tier-1 suite under each Python interpreter named on the command
# line, and print each one's version with its pytest summary line (and the
# id of each failed test), then the five digests of tools/digests.sh under
# the same interpreter. Every interpreter runs; the script exits 1 if any
# run had a failure or an error, or if any interpreter's digests differ from
# the first one's, else 0.
#
#     tools/tier1_pythons.sh ~/.pyenv/versions/3.12.1/bin/python ~/.pyenv/versions/3.13.0/bin/python
#
# Nothing is installed. pytest, hypothesis and the packages they require are
# pure Python: the copies that the `python3` on PATH imports (3.11) are linked
# into a temporary directory, which goes on PYTHONPATH after src. Bytecode is
# written under that directory too, so neither the repo nor the linked
# packages gain a __pycache__ entry for another interpreter.
set -eu
repo=$(cd "$(dirname "$0")/.." && pwd)
deps=$(mktemp -d)
trap 'rm -rf "$deps"' EXIT

python3 - "$deps" <<'PY'
import importlib.metadata as md
import os
import sys

from packaging.requirements import Requirement

out, todo, seen = sys.argv[1], ["pytest", "hypothesis"], set()
while todo:  # each distribution with the requirements that apply to the host, without extras
    dist = md.distribution(todo.pop())
    if dist.metadata["Name"].lower() in seen:
        continue
    seen.add(dist.metadata["Name"].lower())
    todo += [r.name for r in map(Requirement, dist.requires or ())
             if r.marker is None or r.marker.evaluate({"extra": ""})]
    for top in {f.parts[0] for f in dist.files if f.parts[0] not in ("..", "__pycache__")}:
        target = os.path.join(out, top)
        if not os.path.exists(target):
            os.symlink(dist.locate_file(top), target)
PY

status=0
first=
for py in "$@"; do
    version=$("$py" -c 'import platform; print(platform.python_version())')
    log=$(cd "$repo" && PYTHONPATH="src:$deps" PYTHONPYCACHEPREFIX="$deps/pycache" \
        "$py" -m pytest -q --continue-on-collection-errors 2>&1) || status=1
    echo "$version: $(printf '%s\n' "$log" | tail -n 1)"
    printf '%s\n' "$log" | grep -E '^(FAILED|ERROR) ' | cut -c1-160 | sed 's/^/    /' || true
    digests=$("$repo/tools/digests.sh" "$py" "$repo" 2>&1) || status=1
    printf '%s\n' "$digests" | sed 's/^/    digest /'
    if [ -z "$first" ]; then
        first=$digests first_version=$version
    elif [ "$digests" != "$first" ]; then
        echo "    digests differ from $first_version's"
        status=1
    fi
done
exit $status
