#!/bin/sh
# Print the sha256 of `cauchykit verify`'s stdout for the pinned seeds, one
# digest a line: `verify --seed 42`, then `verify --seed S --trials 200 --n 8`
# for S = 1, 7, 42 and 99. Two checkouts print byte-identical outputs when
# their lists diff clean:
#
#     tools/digests.sh python3 /path/to/parent > parent.txt
#     tools/digests.sh python3 > change.txt && diff parent.txt change.txt
#
# The first argument is the interpreter (default python3), the second the
# checkout whose src/ it imports (default the one that holds this script).
# The script stops with verify's status if a run does not exit 0, and writes
# no bytecode into the checkout.
set -eu
py=${1:-python3}
checkout=$(cd "${2:-$(dirname "$0")/..}" && pwd)
out=$(mktemp)
trap 'rm -f "$out"' EXIT

digest() {
    (cd "$checkout" && PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1 "$py" -m cauchykit verify "$@" >"$out")
    sha256sum <"$out" | cut -d' ' -f1
}

digest --seed 42
for seed in 1 7 42 99; do
    digest --seed "$seed" --trials 200 --n 8
done
