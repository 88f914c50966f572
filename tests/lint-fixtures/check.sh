#!/usr/bin/env bash
# Proves that clippy rejects what the former workspace lint's line rules,
# its `index-overflow` pass and its `panic-reach` strict tier caught. Runs
# `cargo clippy` over the fixture package once per workspace `clippy.toml`
# (via CLIPPY_CONF_DIR) and fails unless every expected lint fires, the
# untrusted-input denies fire inside `src/ingest.rs`, and the in-place-write
# lints fire only under the tensor and serve configurations. Run from
# anywhere: `tests/lint-fixtures/check.sh`.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
status=0

# require <present|absent> <needle> <what>: checks $out, the diagnostics
# of the run under $conf.
require() {
    local found=0
    grep -qF -- "$2" <<<"$out" && found=1
    if [[ $1 == present && $found == 0 ]] || [[ $1 == absent && $found == 1 ]]; then
        echo "lint-fixtures: $3 expected $1 under $conf/clippy.toml" >&2
        status=1
    fi
}

# require_in <file> <lint>: checks that $out holds a <lint> diagnostic
# whose span lies in <file>.
require_in() {
    # No `grep -q` downstream: an early exit would fail the pipe (pipefail).
    if ! grep -F -- "\"code\":{\"code\":\"$2\"" <<<"$out" |
        grep -F -- "\"file_name\":\"$1\"" >/dev/null; then
        echo "lint-fixtures: $2 expected present in $1 under $conf/clippy.toml" >&2
        status=1
    fi
}

for conf in . crates/tensor crates/serve; do
    # The fixture is meant to fail to compile; only its diagnostics count.
    out=$(cd "$root" && CLIPPY_CONF_DIR="$root/$conf" cargo clippy -q \
        --manifest-path tests/lint-fixtures/Cargo.toml \
        --target-dir target/lint-fixtures --message-format=json 2>/dev/null || true)
    for lint in clippy::unwrap_used clippy::expect_used missing_docs \
        clippy::cast_possible_truncation unfulfilled_lint_expectations; do
        require present "\"code\":{\"code\":\"$lint\"" "$lint"
    done
    for lint in clippy::indexing_slicing clippy::panic clippy::unreachable \
        clippy::unwrap_used clippy::expect_used; do
        require_in src/ingest.rs "$lint"
    done
    require present 'disallowed method `std::sync::Mutex::lock`' "clippy::disallowed_methods (lock)"
    fs=present
    [[ $conf == . ]] && fs=absent
    for m in std::fs::write std::fs::File::create std::fs::OpenOptions::new; do
        require "$fs" "disallowed method \`$m\`" "clippy::disallowed_methods ($m)"
    done
done

[[ $status == 0 ]] && echo "lint-fixtures: every expected lint fired"
exit "$status"
