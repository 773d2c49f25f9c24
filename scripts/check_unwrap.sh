#!/usr/bin/env bash
# Robustness gate: no `.unwrap()` / `.expect(` in non-test code of the
# crates that sit on the serving path (`crates/service`, `crates/core`,
# `crates/engine`, `crates/storage`, `crates/wire`, `crates/server`,
# `crates/sql`, `crates/obs`).
#
#   ./scripts/check_unwrap.sh
#
# A panic in those crates takes a lock-holding thread down mid-query; the
# query governor work replaced them with typed errors and poison-recovering
# locks, and this gate keeps new ones out. Test code is exempt: everything
# from a `#[cfg(test)]` line to end-of-file, files under `tests/`, and
# `// ...` comment lines are stripped before grepping.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for crate in crates/service crates/core crates/engine crates/storage crates/wire crates/server \
    crates/sql crates/obs; do
    while IFS= read -r file; do
        # Strip the `#[cfg(test)]` module (convention: last item in the
        # file) and comment lines, then look for panicking calls.
        hits=$(sed -e '/#\[cfg(test)\]/,$d' -e 's|//.*||' "$file" \
            | grep -n '\.unwrap()\|\.expect(' || true)
        if [ -n "$hits" ]; then
            echo "error: panicking call in non-test code of $file:" >&2
            echo "$hits" | sed 's/^/    /' >&2
            fail=1
        fi
    done < <(find "$crate/src" -name '*.rs')
done

if [ "$fail" -ne 0 ]; then
    echo "use typed errors (or the poison-recovering pqp_storage::sync locks) instead" >&2
    exit 1
fi
echo "OK: no unwrap/expect in non-test service/core/engine/storage/wire/server/sql/obs code"
