#!/usr/bin/env bash
# Re-runs the committed mutation checks. Each tests/mutants/*.patch seeds
# one bug into a scratch copy of the tree under target/mutants/ and names,
# on its `Fails:` header line, the `cargo test` arguments of the test that
# must reject it. The mutant must build; its test must then fail. The
# script exits non-zero if a patch does not apply, a mutant does not
# build, or a test passes with its mutant in place (the mutant survived).
# Every mutant shares one target directory, so only the first pays for a
# cold build.
# Usage: scripts/mutants.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
scratch="$root/target/mutants"
mkdir -p "$scratch"

survived=0
for patch in tests/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    read -r -a args <<<"$(sed -n 's/^Fails: //p' "$patch")"
    copy="$scratch/$name"
    rm -rf "$copy" && mkdir -p "$copy"
    # The working tree as it stands, build outputs aside.
    git ls-files -z --cached --others --exclude-standard \
        | tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$copy"
    patch --quiet -p1 -d "$copy" <"$patch"
    export CARGO_TARGET_DIR="$scratch/target"
    (cd "$copy" && cargo test -q --offline --no-run "${args[@]}" 2>/dev/null)
    if (cd "$copy" && cargo test -q --offline "${args[@]}" >/dev/null 2>&1); then
        echo "mutants: $name SURVIVED cargo test ${args[*]}"
        survived=1
    else
        echo "mutants: $name killed by cargo test ${args[*]}"
    fi
done
exit "$survived"
