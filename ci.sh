#!/usr/bin/env bash
# CI entry point — everything runs offline against the vendored/in-tree
# dependency set (the workspace has zero registry dependencies).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --offline --workspace

echo "== tests =="
cargo test -q --offline --workspace
# The timing recorder's exact-attribution checks (profile = phases =
# run, one histogram round per flat pass) must hold in the optimised
# build too, where the intervals are shortest.
cargo test --release -q --offline -p gbc-bench --test trace_shape
# Byte offsets and integer literals wrap silently in release builds,
# where debug builds panic: the parser's tests, its fuzz test among
# them, run optimised too.
cargo test --release -q --offline -p gbc-parser
# The same holds for the (R,Q,L) heap's position arithmetic and the FD
# tables' probing, which the storage tests exercise.
cargo test --release -q --offline -p gbc-storage

echo "== lints =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== format =="
cargo fmt --all --check

echo "== smoke: gbc run with observability =="
stats_json="$(mktemp)"
diag_json="$(mktemp)"
serve_log="$(mktemp)"
serve_pid=""
cleanup() {
    rm -f "$stats_json" "$diag_json" "$serve_log"
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT
./target/release/gbc run programs/prim.dl programs/graph_small.dl \
    --stats --stats-json "$stats_json" >/dev/null
grep -q '"gamma_steps": 5' "$stats_json" || {
    echo "unexpected gamma_steps in $stats_json" >&2
    exit 1
}
# A γ commit retires the queued candidates its choice FDs block, so on
# the shipped matching every pop commits: 4 pops, 2 arcs retired.
./target/release/gbc run programs/matching.dl --stats-json "$stats_json" >/dev/null
for want in '"discarded_pops": 0' '"rql_retired": 2'; do
    grep -q "$want" "$stats_json" || {
        echo "matching run lacks $want in $stats_json" >&2
        exit 1
    }
done
# An evaluation runs on one thread: `--threads` sizes the `gbc serve`
# worker pool only, and is a usage error everywhere else.
if ./target/release/gbc run programs/sort.dl --threads 2 >/dev/null 2>&1; then
    echo "gbc run accepted --threads (only gbc serve takes it)" >&2
    exit 1
fi

echo "== smoke: gbc run --profile and gbc explain over shipped programs =="
# Every shipped program must survive a profiled run whose per-rule table
# attributes exactly 100% of the run time, and answer a provenance query
# over its primary output predicate. Entries pair the README's file
# groups with a wildcard query atom; the generic-engine Prim run is
# profiled only.
obs_groups=(
    "programs/prim.dl programs/graph_small.dl|prm(_, _, _, _)"
    "programs/spanning.dl programs/graph_small.dl|st(_, _, _, _)"
    "programs/kruskal.dl programs/graph_small.dl|kruskal(_, _, _, _)"
    "programs/sort.dl|sp(_, _, _)"
    "programs/matching.dl|matching(_, _, _, _)"
    "programs/huffman.dl|pick(_, _, _)"
    "programs/scheduling.dl|sched(_, _, _)"
    "programs/tsp.dl|tsp_chain(_, _, _, _)"
    "programs/assignment.dl|a_st(_, _, _)"
)
for entry in "${obs_groups[@]}" "programs/prim.dl programs/graph_small.dl --generic|"; do
    files="${entry%%|*}"
    atom="${entry##*|}"
    # shellcheck disable=SC2086
    ./target/release/gbc run $files --profile >/dev/null 2>"$diag_json" || {
        echo "gbc run --profile failed for: $files" >&2
        exit 1
    }
    grep -q 'attributed .*(100\.0%)' "$diag_json" || {
        echo "profile does not attribute 100.0% of run time for: $files" >&2
        exit 1
    }
    [ -n "$atom" ] || continue
    # shellcheck disable=SC2086
    ./target/release/gbc explain $files -- "$atom" >/dev/null || {
        echo "gbc explain failed for: $files ($atom)" >&2
        exit 1
    }
done

echo "== check: shipped programs are diagnostic-clean =="
# Every shipped program must pass the full static pipeline with zero
# diagnostics, warnings included. Programs and their EDB files are
# grouped the way the README runs them (new_g is defined in both
# prim.dl and spanning.dl, so those check separately).
check_groups=(
    "programs/prim.dl programs/graph_small.dl"
    "programs/spanning.dl programs/graph_small.dl"
    "programs/sort.dl"
    "programs/matching.dl"
    "programs/huffman.dl"
    "programs/scheduling.dl"
    "programs/tsp.dl"
    "programs/assignment.dl"
)
for group in "${check_groups[@]}"; do
    # shellcheck disable=SC2086
    ./target/release/gbc check $group --deny-warnings >/dev/null || {
        echo "gbc check --deny-warnings failed for: $group" >&2
        exit 1
    }
done

echo "== verify: shipped runs are stable models (Theorem 1) =="
# `gbc verify` checks each run against the rewritten negative program.
# kruskal is left out: its generic-fixpoint run fails the check (an open
# correctness item in ROADMAP.md). Each group is verified again under
# `--generic`, the reference Choice Fixpoint, except huffman: the generic
# engine reads its `least(C)` literally (ROADMAP.md, "One meaning for
# `least`/`most` and choice in all three engines").
for group in "${check_groups[@]}"; do
    for engine in "" --generic; do
        [ "$engine" = --generic ] && [ "$group" = programs/huffman.dl ] && continue
        # shellcheck disable=SC2086
        ./target/release/gbc verify $group $engine | grep -q 'stable model check: PASS' || {
            echo "gbc verify $engine did not PASS for: $group" >&2
            exit 1
        }
    done
done
# `--stats` times the check itself as a `verify` phase next to `setup`
# and `run`.
./target/release/gbc verify programs/scheduling.dl --stats 2>&1 >/dev/null \
    | grep -q '^verify ' || {
    echo "gbc verify --stats printed no verify phase" >&2
    exit 1
}

echo "== check: negative corpus matches the JSON goldens =="
# Each programs/bad fixture re-renders to exactly its committed
# --diag-json snapshot (the .expect rendering is covered in-process by
# tests/diagnostics_golden.rs).
for fixture in programs/bad/*.dl; do
    golden="${fixture%.dl}.diag.json"
    # Negative fixtures exit nonzero by design; only the JSON matters.
    ./target/release/gbc check "$fixture" --diag-json "$diag_json" \
        >/dev/null 2>&1 || true
    diff -u "$golden" "$diag_json" || {
        echo "diagnostics drifted for $fixture (bless with GBC_BLESS=1 \
cargo test --test diagnostics_golden)" >&2
        exit 1
    }
done

echo "== admission: gbc run refuses exactly what gbc check rejects =="
# One admission gate: `gbc run` must refuse every fixture `gbc check`
# reports an error for. On every other fixture the greedy run and the
# generic choice fixpoint (`--generic`) must agree in exit status: a
# planned program never fails for want of a stage fact.
for fixture in programs/bad/*.dl; do
    if ./target/release/gbc check "$fixture" >/dev/null 2>&1; then
        greedy=0
        ./target/release/gbc run "$fixture" >/dev/null 2>&1 || greedy=$?
        generic=0
        ./target/release/gbc run "$fixture" --generic >/dev/null 2>&1 || generic=$?
        [ "$greedy" = "$generic" ] || {
            echo "gbc run ($greedy) and gbc run --generic ($generic) disagree on $fixture" >&2
            exit 1
        }
    elif ./target/release/gbc run "$fixture" >/dev/null 2>&1; then
        echo "gbc run accepted $fixture, which gbc check rejects" >&2
        exit 1
    fi
done

echo "== ci-analyze: whole-program analysis reports match goldens =="
# `gbc analyze --analysis-json` over every shipped program group must
# reproduce the committed report byte for byte: column types,
# reachability facts, and each greedy plan's static facts (integer cost
# column, columnar feed) are part of the compatibility surface.
# Regenerate with:
#   ./target/release/gbc analyze <files> --analysis-json tests/goldens/analysis/<name>.json
analyze_groups=(
    "programs/prim.dl programs/graph_small.dl|prim"
    "programs/spanning.dl programs/graph_small.dl|spanning"
    "programs/kruskal.dl programs/graph_small.dl|kruskal"
    "programs/sort.dl|sort"
    "programs/matching.dl|matching"
    "programs/huffman.dl|huffman"
    "programs/scheduling.dl|scheduling"
    "programs/tsp.dl|tsp"
    "programs/assignment.dl|assignment"
)
for entry in "${analyze_groups[@]}"; do
    files="${entry%%|*}"
    name="${entry##*|}"
    # shellcheck disable=SC2086
    ./target/release/gbc analyze $files --analysis-json "$diag_json" || {
        echo "gbc analyze failed for: $files" >&2
        exit 1
    }
    diff -u "tests/goldens/analysis/$name.json" "$diag_json" || {
        echo "analysis report drifted for $files (regenerate the golden)" >&2
        exit 1
    }
done
# The oracle sweep: every greedy-planned group (plus inline rules on the
# binding-frame feed and a heap of mixed integer and symbol costs) must
# agree with the generic choice fixpoint and pass the Theorem 1
# stable-model check. Both equivalence suites run in the release build
# here (`cargo test` above ran them in debug), so the optimised heap is
# checked against the oracle too.
cargo test --release -q --offline -p gbc-bench --test oracle_equivalence
# The V1 verdict suite: shipped runs must pass the Theorem 1 check and
# tampered copies of them (an extra head fact, a deleted commit, a
# dropped chosen record) must fail it, in the optimised build too.
cargo test --release -q --offline -p gbc-bench --test integration_semantics
# Hand-made twins: dead rules and a constant-true comparison must leave
# the model and the choices unchanged, and a framed-feed twin must match
# the columnar feed, counters included.
cargo test --release -q --offline -p gbc-bench --test analysis_equivalence

echo "== bench: experiment record, ratio gate and regression gate =="
# Quick (0-warmup, median-of-3) run of the paper experiments E1-E3,
# appended as a labelled run to a copy of BENCH_experiments.json under
# target/, next to the committed records, so CI leaves the committed
# file untouched. --ratio-gate fails the build when the n-max
# declarative/classical wall-clock ratio breaches the ceilings committed
# in experiments.rs.
bench_json=target/ci/BENCH_experiments.json
mkdir -p "$(dirname "$bench_json")"
cp BENCH_experiments.json "$bench_json"
./target/release/experiments prim sort matching --quick --ratio-gate \
    --json "$bench_json" --label "ci-quick" >/dev/null || {
    echo "declarative/classical ratio gate failed (see experiments.rs ceilings)" >&2
    exit 1
}
# The fresh run and the committed records the trail must keep, the last
# of them the baseline of the regression gate below.
for label in ci-quick post-PR7 post-PR8 post-PR10 post-PR16 post-PR19 post-PR23 \
    post-PR24 post-PR25 post-PR26 post-PR28 post-PR29 pre-PR32 post-PR32 quick-baseline; do
    grep -q "\"label\": \"$label\"" "$bench_json" || {
        echo "$bench_json is missing the \"$label\" run" >&2
        exit 1
    }
done
for col in dict_entries encode_hits decode_calls load_ns render_ns; do
    grep -q "\"$col\"" "$bench_json" || {
        echo "BENCH_experiments.json rows lack column: $col" >&2
        exit 1
    }
done
# The regression gate: the ci-quick run against the committed quick
# record of the same three experiments. Semantic counters must match
# exactly; timing columns only warn, because shared CI boxes cannot
# hard-gate wall-clock. A change that moves a counter on purpose
# appends a new quick-baseline record (the gate reads the latest one).
./target/release/experiments --compare quick-baseline \
    --json "$bench_json" --tolerance 75 || {
    echo "ci-quick counters drifted from the committed quick-baseline record" >&2
    exit 1
}

echo "== ci-serve: gbc serve endpoint sweep over real TCP =="
# Boot the actual `gbc serve` binary on an ephemeral port and exercise
# every endpoint through raw TCP streams (bash /dev/tcp): liveness,
# load, concurrent-safe evaluation, stats, journal, programs, the
# Prometheus scrape, and the malformed-request 400 path. The in-process
# TcpStream coverage (byte-identity with `gbc run`, mid-run scrapes,
# several tenants served concurrently with every counter equal to an
# in-process run) lives in tests/serve_smoke.rs, which `cargo test`
# above already ran.
./target/release/gbc serve 127.0.0.1:0 programs/sort.dl --threads 2 \
    2>"$serve_log" &
serve_pid=$!
for _ in $(seq 1 50); do
    grep -q 'listening on' "$serve_log" && break
    sleep 0.1
done
serve_port="$(sed -n 's#.*http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$serve_log")"
[ -n "$serve_port" ] || { echo "gbc serve did not come up" >&2; exit 1; }

http_get() { # PATH -> full response on stdout
    exec 9<>"/dev/tcp/127.0.0.1/$serve_port"
    printf 'GET %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "$1" >&9
    cat <&9
    exec 9<&- 9>&-
}
http_post() { # PATH BODY -> full response on stdout
    local len
    len=$(printf '%s' "$2" | wc -c)
    exec 9<>"/dev/tcp/127.0.0.1/$serve_port"
    printf 'POST %s HTTP/1.1\r\nHost: ci\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
        "$1" "$len" "$2" >&9
    cat <&9
    exec 9<&- 9>&-
}

http_get /healthz | grep -q '"status":"ok"' || {
    echo "/healthz is not ok" >&2; exit 1; }
# /load takes program text: JSON-escape prim + its graph into one string.
prim_program="$(cat programs/prim.dl programs/graph_small.dl \
    | sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/\t/\\t/g' | awk '{printf "%s\\n", $0}')"
http_post /load "{\"name\": \"prim\", \"program\": \"$prim_program\"}" \
    | grep -q '"greedy_plan": true' || {
    echo "POST /load failed for prim" >&2; exit 1; }
http_post /run '{"session": "prim", "journal": true}' \
    | grep -q '"gamma_steps":5' || {
    echo "POST /run gave unexpected gamma_steps (want the gbc-run-pinned 5)" >&2; exit 1; }
http_get '/stats?session=prim' | grep -q '"schema_version": 5' || {
    echo "GET /stats missing the schema-v5 report" >&2; exit 1; }
http_get '/journal?session=prim' | grep -q '"type":"stage_commit"' || {
    echo "GET /journal carries no choice-audit events" >&2; exit 1; }
http_get /programs | grep -q '"name": "prim"' || {
    echo "GET /programs does not list prim" >&2; exit 1; }
http_get /metrics | grep -q '^gbc_runs_total 1$' || {
    echo "GET /metrics lost the run counter" >&2; exit 1; }
http_post /run '{not json' | head -1 | grep -q '400' || {
    echo "malformed /run body did not answer 400" >&2; exit 1; }
http_get /nowhere | head -1 | grep -q '404' || {
    echo "unknown endpoint did not answer 404" >&2; exit 1; }
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "CI OK"
