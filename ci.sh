#!/usr/bin/env bash
# CI gate for DASSA-rs. Run from the repo root; fails fast.
#
#   ./ci.sh          # tier-1 + lints + release dsp/dasf equivalence + chaos matrix + gates
#   ./ci.sh --quick  # lints only (skip the release build + tests)
set -euo pipefail
cd "$(dirname "$0")"

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Unsafe budget: dasf decodes bytes it does not control, so all of it is
# safe Rust except one block — the call into the `#[target_feature]`
# CRC32C function in crc.rs — and that block states why it is sound.
echo "==> unsafe budget: one block in dasf, in crc.rs, under a SAFETY comment"
unsafe_sites="$(grep -rnE '\bunsafe\b' crates/dasf/src --include='*.rs' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
if [[ "$(grep -c . <<<"$unsafe_sites")" -ne 1 ]] ||
    ! grep -qE '^crates/dasf/src/crc\.rs:[0-9]+:.*\bunsafe \{' <<<"$unsafe_sites"; then
    echo "unsafe budget: expected exactly one \`unsafe {\` block, in crates/dasf/src/crc.rs; found:" >&2
    echo "${unsafe_sites:-(none)}" >&2
    exit 1
fi
unsafe_line="$(cut -d: -f2 <<<"$unsafe_sites")"
# The comment block directly above the block must carry its SAFETY line.
if ! awk -v target="$unsafe_line" '
    NR >= target { exit }
    /^[[:space:]]*\/\// { if ($0 ~ /^[[:space:]]*\/\/ SAFETY:/) found = 1; next }
    { found = 0 }
    END { exit !found }' crates/dasf/src/crc.rs; then
    echo "unsafe budget: crc.rs:$unsafe_line has no // SAFETY: comment directly above it" >&2
    exit 1
fi
grep -qxF '#![deny(unsafe_op_in_unsafe_fn)]' crates/dasf/src/lib.rs || {
    echo "unsafe budget: crates/dasf/src/lib.rs lost #![deny(unsafe_op_in_unsafe_fn)]" >&2
    exit 1
}

# Unsafe allow-list: the rest of the workspace is safe Rust too, except
# the files below — `file under crates/|non-comment lines naming unsafe|why`.
# Crates with none carry #![forbid(unsafe_code)], so the compiler holds
# them to it; this step holds the whole tree, binaries and tests
# included. Every site sits under a `// SAFETY:` comment block (adjacent
# `unsafe impl` lines may share one).
echo "==> unsafe allow-list: crates/, tests/ and examples/, each site under a SAFETY comment"
unsafe_allowed=(
    'dasf/src/crc.rs|1|SIMD CRC32C: the call into the sse4.2 target-feature function'
    'dsp/src/tier.rs|1|AVX2 tier: the call into the avx2 target-feature runner'
    'obs/src/trace.rs|4|per-thread trace ring: Send/Sync for the buffer, its one writer, its readers'
    'core/src/ingest/watch.rs|4|inotify/ppoll FFI: the spool doorbell'
    'core/src/bin/das_ingest.rs|1|signal(2) FFI: SIGINT/SIGTERM stop the daemon'
)
unsafe_sites="$(grep -rnE '\bunsafe\b' crates tests examples --include='*.rs' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
unsafe_found="$(grep -oE '^[^:]+' <<<"$unsafe_sites" | sed 's|^crates/||' | sort | uniq -c |
    awk '{ print $2 "|" $1 }' || true)"
unsafe_want="$(printf '%s\n' "${unsafe_allowed[@]}" | cut -d'|' -f1,2 | sort)"
if [[ "$unsafe_found" != "$unsafe_want" ]]; then
    echo "unsafe allow-list: unsafe lines per file differ from the list in ci.sh (< listed, > found):" >&2
    diff <(echo "$unsafe_want") <(echo "$unsafe_found") >&2 || true
    echo "${unsafe_sites:-(none)}" >&2
    exit 1
fi
while IFS=: read -r file line _; do
    if ! awk -v target="$line" '
        NR >= target { exit }
        /^[[:space:]]*\/\// { if ($0 ~ /^[[:space:]]*\/\/ SAFETY:/) found = 1; next }
        /^[[:space:]]*unsafe impl / { next }
        { found = 0 }
        END { exit !found }' "$file"; then
        echo "unsafe allow-list: $file:$line has no // SAFETY: comment block directly above it" >&2
        exit 1
    fi
done <<<"$unsafe_sites"

if [[ $quick -eq 0 ]]; then
    # One scratch root for every gate below, removed however the run
    # ends; each gate works in a subdirectory of its own.
    ci_tmp="$(mktemp -d)"
    trap 'rm -rf "$ci_tmp"' EXIT

    echo "==> tier-1: cargo build --release"
    cargo build --release
    echo "==> tier-1: cargo test -q"
    cargo test -q

    # The dsp kernels that run rows, outputs and lags in lockstep lanes
    # only vectorise in release, and tier-1 tests the debug build: run
    # the bit-for-bit equivalence suite (lanes == one-at-a-time
    # references, lane isolation) on the code that ships.
    echo "==> dsp: release-mode bit-equality"
    cargo test --release -q -p dsp
    # The engine's row blocks ride those lanes: its pinned analysis
    # digests and window-block stacking test run on the same build.
    echo "==> dasa: release-mode pinned output bits"
    cargo test --release -q -p dassa --lib dasa::

    # Same for dasf's writer: its match finder and plane scatter are
    # only what ships once optimised, and their tests are byte-for-byte
    # comparisons against the `#[cfg(test)]` reference encoder plus the
    # pinned file digests of tests/integrity.rs.
    echo "==> dasf: release-mode byte-equality"
    cargo test --release -q -p dasf

    # dasf's one `unsafe` block calls the `#[target_feature]` CRC32C
    # code, the three-stream `crc32` loops every read and scrub hashes
    # through, and dsp's calls the AVX2 copy of its lockstep lane
    # kernels: run both crates' unit and integration tests under
    # AddressSanitizer (nightly), in a target directory of its own so
    # the instrumented build never mixes with the tier-1 one.
    echo "==> dasf, dsp: AddressSanitizer over the unit and integration tests"
    RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR="$ci_tmp/asan" \
        cargo +nightly test --offline -q -p dasf -p dsp --lib --tests \
        --target x86_64-unknown-linux-gnu

    # Chaos matrix: the seeded fault-injection suite over 8 seeds, run
    # twice with outcome digests. Any nondeterminism — a fault plan
    # whose outcome differs between two identically-seeded runs, within
    # a process or across the two passes — fails the gate.
    echo "==> chaos: seeded fault matrix (8 seeds, two passes)"
    digest_dir="$ci_tmp/digest"
    mkdir "$digest_dir"
    DASSA_CHAOS_SEEDS=8 DASSA_CHAOS_DIGEST="$digest_dir/pass1" \
        cargo test -q -p bench --test chaos
    DASSA_CHAOS_SEEDS=8 DASSA_CHAOS_DIGEST="$digest_dir/pass2" \
        cargo test -q -p bench --test chaos
    if ! diff -u "$digest_dir/pass1" "$digest_dir/pass2"; then
        echo "chaos: same seeds produced different outcomes across runs" >&2
        exit 1
    fi
    # …and against the committed baseline, so a refactor that changes
    # outcomes deterministically (both passes agree, but differently
    # than before) still fails until the baseline is refreshed.
    if [[ -f results/CHAOS_digest.txt ]]; then
        if ! diff -u results/CHAOS_digest.txt "$digest_dir/pass1"; then
            echo "chaos: outcomes drifted from results/CHAOS_digest.txt" >&2
            echo "chaos: refresh the baseline only if the drift is intentional" >&2
            exit 1
        fi
    else
        mkdir -p results
        cp "$digest_dir/pass1" results/CHAOS_digest.txt
        echo "    recorded new chaos baseline results/CHAOS_digest.txt"
    fi

    # Integrity scrub: generate a small corpus, damage two files the
    # two ways that matter (bit-rot vs torn write), and check das_fsck
    # classifies every file correctly with a nonzero exit.
    echo "==> scrub: das_fsck over a damaged corpus"
    scrub_dir="$ci_tmp/scrub"
    mkdir "$scrub_dir"
    target/release/das_gen -d "$scrub_dir" -c 4 -r 20 -m 6 >/dev/null
    members=("$scrub_dir"/*.dasf)
    [[ ${#members[@]} -eq 6 ]] || { echo "scrub: expected 6 members" >&2; exit 1; }
    # Bit-rot: flip payload bytes in the first member.
    printf '\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff' |
        dd of="${members[0]}" bs=1 seek=64 conv=notrunc status=none
    # Torn write: chop the tail off the second member.
    truncate -s -20 "${members[1]}"
    fsck_json="$scrub_dir/fsck.json"
    if target/release/das_fsck --json "$scrub_dir" >"$fsck_json"; then
        echo "scrub: das_fsck exited 0 on a damaged corpus" >&2
        exit 1
    fi
    for want in '"scanned":6' '"clean":4' '"corrupt":1' '"torn":1' '"errors":0'; do
        grep -qF "$want" "$fsck_json" || {
            echo "scrub: missing $want in das_fsck report:" >&2
            cat "$fsck_json" >&2
            exit 1
        }
    done
    grep -qF "\"path\":\"${members[0]}\",\"status\":\"corrupt\"" "$fsck_json" || {
        echo "scrub: bit-rot not attributed to ${members[0]}" >&2
        cat "$fsck_json" >&2
        exit 1
    }
    grep -qF "\"path\":\"${members[1]}\",\"status\":\"torn\"" "$fsck_json" || {
        echo "scrub: truncation not attributed to ${members[1]}" >&2
        cat "$fsck_json" >&2
        exit 1
    }

    # Compression gate: one corpus per codec from the same scene.
    # shuffle-lz must actually shrink synthetic DAS noise on disk, the
    # pipeline must produce byte-identical output from the raw and the
    # lossless-compressed corpus, and fsck must still classify a
    # damaged compressed corpus (checksums cover the *stored* bytes).
    echo "==> codec: per-codec corpora + lossless byte-identity + damaged scrub"
    codec_dir="$ci_tmp/codec"
    mkdir "$codec_dir"
    for codec in raw shuffle-lz quant:0.001; do
        target/release/das_gen -d "$codec_dir/${codec%%:*}" -c 8 -r 50 -m 4 \
            --codec "$codec" >/dev/null
    done
    # Stored bytes are pinned across commits, not only against the
    # in-tree reference encoder: every file of the three corpora must
    # still be the one recorded in results/CODEC_stored_digest.txt
    # (whose `#` lines say when and with which encoder).
    (cd "$codec_dir" && cksum raw/*.dasf shuffle-lz/*.dasf quant/*.dasf) >"$codec_dir/stored_digest"
    if [[ -f results/CODEC_stored_digest.txt ]]; then
        if ! grep -v '^#' results/CODEC_stored_digest.txt | diff -u - "$codec_dir/stored_digest"; then
            echo "codec: stored bytes drifted from results/CODEC_stored_digest.txt" >&2
            echo "codec: refresh the baseline only if the format change is intentional" >&2
            exit 1
        fi
    else
        mkdir -p results
        cp "$codec_dir/stored_digest" results/CODEC_stored_digest.txt
        echo "    recorded new stored-bytes baseline results/CODEC_stored_digest.txt"
    fi
    raw_bytes=$(du -sb "$codec_dir/raw" | cut -f1)
    lz_bytes=$(du -sb "$codec_dir/shuffle-lz" | cut -f1)
    if [[ "$lz_bytes" -ge "$raw_bytes" ]]; then
        echo "codec: shuffle-lz did not shrink the corpus ($lz_bytes >= $raw_bytes)" >&2
        exit 1
    fi
    compress_ratio=$(target/release/das_fsck --json "$codec_dir/shuffle-lz" |
        grep -oE '"compress_ratio":"[0-9.]+"' | head -1 | grep -oE '[0-9.]+')
    echo "    raw=$raw_bytes lz=$lz_bytes bytes on disk (ratio $compress_ratio)"
    target/release/das_pipeline -d "$codec_dir/raw" -a interferometry \
        -o "$codec_dir/out_raw.dasf" >/dev/null 2>&1
    target/release/das_pipeline -d "$codec_dir/shuffle-lz" -a interferometry \
        -o "$codec_dir/out_lz.dasf" --metrics="$codec_dir/m_lz.json" >/dev/null 2>&1
    if ! cmp "$codec_dir/out_raw.dasf" "$codec_dir/out_lz.dasf"; then
        echo "codec: pipeline output differs between raw and shuffle-lz corpora" >&2
        exit 1
    fi
    decode_raw=$(grep -oE '"dasf\.codec\.bytes_raw":[0-9]+' "$codec_dir/m_lz.json" |
        head -1 | cut -d: -f2)
    decode_ns=$(grep -oE '"dasf\.codec\.decode_ns":\{"count":[0-9]+,"sum":[0-9]+' \
        "$codec_dir/m_lz.json" | grep -oE '[0-9]+$')
    if [[ -z "${decode_raw:-}" || "$decode_raw" -le 0 || -z "${decode_ns:-}" || "$decode_ns" -le 0 ]]; then
        echo "codec: pipeline read recorded no decode traffic" >&2
        exit 1
    fi
    decode_mbps=$(awk -v b="$decode_raw" -v ns="$decode_ns" \
        'BEGIN { printf "%.1f", b * 1000.0 / ns }')
    echo "    lossless byte-identical; decoded $decode_raw bytes at $decode_mbps MB/s"
    # Payload rot under a world of ranks: four bytes overwritten in the
    # middle of one member of a copy of the clean raw corpus. The catalog
    # scan still passes (the torn member below fails there and never
    # reaches an exchange), so the owner rank meets the rot inside the
    # read — and every rank must come back with an error naming the
    # file, where the run used to hang in a collective the owner left.
    cp -r "$codec_dir/raw" "$codec_dir/rot"
    rot_members=("$codec_dir/rot"/*.dasf)
    rotten="${rot_members[1]}"
    printf '\x13\x37\x13\x37' |
        dd of="$rotten" bs=1 seek=$(($(stat -c %s "$rotten") / 2)) conv=notrunc status=none
    for ranks in 2 8; do
        rc=0
        timeout 30 target/release/das_pipeline -d "$codec_dir/rot" -a interferometry \
            --ranks "$ranks" >/dev/null 2>"$codec_dir/rot.log" || rc=$?
        if [[ $rc -eq 0 || $rc -eq 124 ]] ||
            ! grep -qF "checksum mismatch in $rotten" "$codec_dir/rot.log"; then
            echo "codec: das_pipeline --ranks $ranks over a rotten member exited $rc (124 = hung), want an error naming $rotten:" >&2
            tail -n 5 "$codec_dir/rot.log" >&2
            exit 1
        fi
    done
    echo "    rotten member under --ranks 2 and 8: every rank errors, none hangs"
    # Damage the compressed corpus the same two ways as the raw scrub.
    lz_members=("$codec_dir/shuffle-lz"/*.dasf)
    printf '\xff\xff\xff\xff\xff\xff\xff\xff' |
        dd of="${lz_members[0]}" bs=1 seek=64 conv=notrunc status=none
    truncate -s -20 "${lz_members[1]}"
    codec_json="$codec_dir/fsck.json"
    if target/release/das_fsck --json "$codec_dir/shuffle-lz" >"$codec_json"; then
        echo "codec: das_fsck exited 0 on a damaged compressed corpus" >&2
        exit 1
    fi
    for want in '"scanned":4' '"clean":2' '"corrupt":1' '"torn":1'; do
        grep -qF "$want" "$codec_json" || {
            echo "codec: missing $want in das_fsck report:" >&2
            cat "$codec_json" >&2
            exit 1
        }
    done
    grep -qF "\"path\":\"${lz_members[0]}\",\"status\":\"corrupt\"" "$codec_json" || {
        echo "codec: bit-rot in compressed corpus not attributed" >&2
        cat "$codec_json" >&2
        exit 1
    }
    echo "    damaged compressed corpus still classifies corrupt/torn/clean"

    # Timeline + cluster metrics: run the pipeline under a 4-rank comm
    # world with tracing on. das_trace must parse both artifacts (it
    # exits nonzero otherwise), and the documents must carry the fields
    # Perfetto and the cluster parser rely on.
    echo "==> trace: das_pipeline --ranks 4 --trace/--metrics round-trip"
    trace_dir="$ci_tmp/trace"
    mkdir "$trace_dir"
    target/release/das_gen -d "$trace_dir" -c 8 -r 20 -m 6 >/dev/null
    target/release/das_pipeline -d "$trace_dir" -a localsim --ranks 4 \
        --trace="$trace_dir/trace.json" --metrics="$trace_dir/m.json" \
        >/dev/null 2>&1
    target/release/das_trace "$trace_dir/trace.json" \
        --metrics "$trace_dir/m.json" >/dev/null
    for want in '"ph":' '"ts":' '"pid":' '"tid":' '"name":' '"dropped":0'; do
        grep -qF "$want" "$trace_dir/trace.json" || {
            echo "trace: missing $want in trace.json" >&2
            exit 1
        }
    done
    for want in '"counters":' '"histograms":' \
        '"cluster":{"ranks":{"0":' '"3":{"counters":'; do
        grep -qF "$want" "$trace_dir/m.json" || {
            echo "trace: missing $want in metrics json" >&2
            exit 1
        }
    done

    # Planner gate: the 4-rank read must reuse pooled buffers, and its
    # fresh-allocation footprint must stay near the recorded baseline.
    # The counter moves a little with thread timing (which rank's read
    # lands first decides which acquisitions recycle), so the gate is
    # 1.5x + 64 KiB — loose enough for scheduling jitter, tight enough
    # that losing pooling outright (≈2x allocations) fails.
    echo "==> planner: pool reuse + dasf.alloc.bytes regression gate"
    pool_hits=$(grep -oE '"pool\.hit":[0-9]+' "$trace_dir/m.json" | head -1 | cut -d: -f2)
    alloc_bytes=$(grep -oE '"dasf\.alloc\.bytes":[0-9]+' "$trace_dir/m.json" | head -1 | cut -d: -f2)
    echo "    pool.hit=${pool_hits:-0} dasf.alloc.bytes=${alloc_bytes:-0}"
    if [[ -z "${pool_hits:-}" || "$pool_hits" -le 0 ]]; then
        echo "planner: pipeline read never hit the buffer pool" >&2
        exit 1
    fi
    # The baseline is a tracked file this script only reads (it used to
    # come from a file the next step rewrote with this run's value, so
    # the budget ratcheted up on every run); refresh it by hand, with
    # the reason, when an allocation change is intended.
    if [[ -f results/ALLOC_baseline.txt ]]; then
        baseline_alloc=$(grep -v '^#' results/ALLOC_baseline.txt | head -1)
        budget=$((baseline_alloc + baseline_alloc / 2 + 65536))
        if [[ "$alloc_bytes" -gt "$budget" ]]; then
            echo "planner: dasf.alloc.bytes regressed: $alloc_bytes > budget $budget (baseline $baseline_alloc)" >&2
            exit 1
        fi
        echo "    within budget $budget (baseline $baseline_alloc)"
    else
        mkdir -p results
        echo "$alloc_bytes" >results/ALLOC_baseline.txt
        echo "    recorded new allocation baseline results/ALLOC_baseline.txt"
    fi

    # Experiment smoke: the four quick paper-figure binaries must still
    # run to completion (they assert their own shape claims) and write
    # their CSV and `--json` result files. Exit status only, output to a
    # scratch directory — timings, ratios and rates are `das_bench`'s to
    # record, not this script's.
    echo "==> bench: exp_* smoke (exit status only)"
    bench_dir="$ci_tmp/bench"
    mkdir "$bench_dir"
    for exp in exp_fig6 exp_fig9 exp_table1 exp_tuner; do
        DASSA_RESULTS="$bench_dir" "target/release/$exp" --json >/dev/null
    done

    # dasl gate: the example .das program, typechecked into its plan and
    # run through the VM, must be byte-identical to `-a interferometry`, the
    # named program it spells out — and the plan must actually fuse
    # the adjacent element-wise stages (dasl.fused_stages > 0 in the
    # metrics).
    echo "==> dasl: --program vs hand-wired byte-identity + fusion gate"
    dasl_dir="$ci_tmp/dasl"
    mkdir "$dasl_dir"
    target/release/das_gen -d "$dasl_dir/corpus" -c 8 -r 500 -m 2 >/dev/null
    target/release/das_pipeline --program examples/interferometry.das \
        -d "$dasl_dir/corpus" --metrics="$dasl_dir/m.json" \
        -o "$dasl_dir/prog.dasf" >/dev/null 2>&1
    target/release/das_pipeline -d "$dasl_dir/corpus" -a interferometry \
        -o "$dasl_dir/hand.dasf" >/dev/null 2>&1
    if ! cmp "$dasl_dir/prog.dasf" "$dasl_dir/hand.dasf"; then
        echo "dasl: program output diverged from the hand-wired pipeline" >&2
        exit 1
    fi
    grep -qE '"dasl\.fused_stages":[1-9]' "$dasl_dir/m.json" || {
        echo "dasl: no fused stages recorded in metrics:" >&2
        grep -oF '"dasl.fused_stages"' "$dasl_dir/m.json" >&2 || true
        exit 1
    }
    target/release/das_pipeline --program examples/detect.das \
        -d "$dasl_dir/corpus" >/dev/null 2>&1 || {
        echo "dasl: examples/detect.das failed to run" >&2
        exit 1
    }
    # One source line must not be able to size an allocation or a filter
    # design: both used to take the process down (abort / panic), both
    # are a caret diagnostic and exit status 2.
    for hostile in \
        'load("corpus") | detrend | resample(1000000007) | xcorr(master=ch[0])' \
        'load("corpus") | detrend | bandpass(0.5, 24, order=2048) | xcorr(master=ch[0])'; do
        rc=0
        target/release/das_pipeline --eval "$hostile" -d "$dasl_dir/corpus" \
            >/dev/null 2>"$dasl_dir/hostile.log" || rc=$?
        if [[ $rc -ne 2 ]] || ! grep -qF 'above the limit' "$dasl_dir/hostile.log"; then
            echo "dasl: \`$hostile\` exited $rc, want 2 with a limit diagnostic:" >&2
            tail -n 5 "$dasl_dir/hostile.log" >&2
            exit 1
        fi
    done
    echo "    byte-identical, $(grep -oE '"dasl\.fused_stages":[0-9]+' "$dasl_dir/m.json" | cut -d: -f2) stages fused; oversized kernel arguments exit 2"
    # `-a` names a program: each analysis and its dasl spelling at the
    # ops' own defaults must write the same file.
    for row in 'localsim|load("corpus") | localsim' \
        'stack|load("corpus") | stack(master=ch[0])'; do
        analysis="${row%%|*}"
        target/release/das_pipeline -d "$dasl_dir/corpus" -a "$analysis" \
            -o "$dasl_dir/a_$analysis.dasf" >/dev/null 2>&1
        target/release/das_pipeline -d "$dasl_dir/corpus" --eval "${row#*|}" \
            -o "$dasl_dir/eval_$analysis.dasf" >/dev/null 2>&1
        if ! cmp "$dasl_dir/a_$analysis.dasf" "$dasl_dir/eval_$analysis.dasf"; then
            echo "dasl: -a $analysis diverged from --eval '${row#*|}'" >&2
            exit 1
        fi
    done
    # A flag the named analysis has no parameter for is a bad
    # invocation, not something to drop.
    for bad in 'interferometry --window' 'localsim --master'; do
        rc=0
        target/release/das_pipeline -d "$dasl_dir/corpus" -a ${bad% *} ${bad#* } 3 \
            >/dev/null 2>"$dasl_dir/flag.log" || rc=$?
        if [[ $rc -ne 2 ]] || ! grep -qF -- "${bad#* } does not apply to -a ${bad% *}" "$dasl_dir/flag.log"; then
            echo "dasl: -a $bad 3 exited $rc, want 2 naming the flag and the analysis:" >&2
            tail -n 5 "$dasl_dir/flag.log" >&2
            exit 1
        fi
    done
    echo "    -a localsim and -a stack equal their --eval spellings; inapplicable -a flags exit 2"
    # Each thread writes the static block of rows it owns, so the
    # thread count must not reach a single output bit.
    for run in '-a interferometry' '-a localsim' '-a stack' \
        '--program examples/interferometry.das' '--program examples/detect.das'; do
        for t in 1 3; do
            target/release/das_pipeline -d "$dasl_dir/corpus" $run -t $t \
                -o "$dasl_dir/threads_$t.dasf" >/dev/null 2>&1
        done
        if ! cmp "$dasl_dir/threads_1.dasf" "$dasl_dir/threads_3.dasf"; then
            echo "dasl: $run -t 3 diverged from -t 1" >&2
            exit 1
        fi
    done
    echo "    -t 1 and -t 3 write the same file for every -a analysis and examples/*.das"
    # No count in a program is byte-sized: 300 `onebit` stages run, and
    # since onebit is idempotent bit for bit they write what one does.
    long_eval='load("corpus")'
    for _ in $(seq 300); do long_eval+=' | onebit'; done
    long_eval+=' | xcorr(master=ch[0])'
    target/release/das_pipeline -d "$dasl_dir/corpus" --eval "$long_eval" \
        -o "$dasl_dir/onebit_300.dasf" >/dev/null 2>&1 || {
        echo "dasl: a 300-stage onebit program failed to run" >&2
        exit 1
    }
    target/release/das_pipeline -d "$dasl_dir/corpus" \
        --eval 'load("corpus") | onebit | xcorr(master=ch[0])' \
        -o "$dasl_dir/onebit_1.dasf" >/dev/null 2>&1
    if ! cmp "$dasl_dir/onebit_300.dasf" "$dasl_dir/onebit_1.dasf"; then
        echo "dasl: onebit x300 diverged from a single onebit" >&2
        exit 1
    fi
    echo "    onebit x300 | xcorr writes the same file as onebit | xcorr"

    # Memory gate: the engine reads the block in its stored f32 and
    # widens one row at a time, so no run holds an f64 copy of the whole
    # block. 64 ch x 500 Hz x 4 min is 30.7 MB as f32 and 61.4 MB as
    # f64: `-t 1` needs 51 MiB of address space, and needed 105 MiB
    # while the pipeline widened the block whole (smallest passing
    # `--as`, bisected). The limit sits between the two.
    echo "==> memory: das_pipeline under prlimit --as, below the block's f64 widening"
    mem_dir="$ci_tmp/mem"
    mkdir "$mem_dir"
    target/release/das_gen -d "$mem_dir/corpus" -c 64 -r 500 -m 4 >/dev/null
    target/release/das_pipeline --program examples/interferometry.das -d "$mem_dir/corpus" \
        -t 1 -o "$mem_dir/free.dasf" >/dev/null 2>&1
    if ! prlimit --as=$((75 * 1024 * 1024)) target/release/das_pipeline \
        --program examples/interferometry.das -d "$mem_dir/corpus" -t 1 \
        -o "$mem_dir/capped.dasf" >/dev/null 2>"$mem_dir/capped.log"; then
        echo "memory: das_pipeline failed under a 75 MiB address-space limit:" >&2
        tail -n 5 "$mem_dir/capped.log" >&2
        exit 1
    fi
    if ! cmp "$mem_dir/free.dasf" "$mem_dir/capped.dasf"; then
        echo "memory: the run under the limit wrote a different file" >&2
        exit 1
    fi
    echo "    interferometry.das over 64 ch x 500 Hz x 4 min ran in 75 MiB of address space, same file"

    # dassd gate: stand the data server up over a generated corpus, run
    # a query and an overload burst against it, then check the shutdown
    # metrics prove the chunk cache, the admission control, and the
    # latency histograms all did their jobs.
    echo "==> dassd: serve/query smoke + overload + metrics gate"
    dassd_dir="$ci_tmp/dassd"
    mkdir "$dassd_dir"
    target/release/das_gen -d "$dassd_dir/corpus" -c 8 -r 50 -m 3 >/dev/null
    target/release/das_serve -d "$dassd_dir/corpus" --workers 2 --queue 0 \
        --metrics="$dassd_dir/m.json" >"$dassd_dir/serve.log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 100); do
        grep -q '^dassd listening on ' "$dassd_dir/serve.log" && break
        sleep 0.1
    done
    addr="$(sed -n 's/^dassd listening on //p' "$dassd_dir/serve.log" | head -1)"
    if [[ -z "$addr" ]]; then
        echo "dassd: server never announced its address" >&2
        cat "$dassd_dir/serve.log" >&2
        exit 1
    fi
    # A window that straddles the first member boundary, asked cold and
    # then again once both members are cached: same samples either way.
    cold="$(target/release/das_query --addr "$addr" --read 2..6:2900..3100)"
    cached="$(target/release/das_query --addr "$addr" --read 2..6:2900..3100)"
    echo "    $cold"
    if [[ "$cold" != "read ok: 4 x 200 digest="* || "$cold" != "$cached" ]]; then
        echo "dassd: cold and cached reads of one window differ:" >&2
        echo "  cold:   $cold" >&2
        echo "  cached: $cached" >&2
        exit 1
    fi
    eval_out="$(target/release/das_query --addr "$addr" \
        --eval 'load("corpus") | detrend | xcorr(master=ch[0])')"
    eval_values=$(grep -oE 'values=[0-9]+' <<<"$eval_out" | cut -d= -f2)
    burst_out="$(target/release/das_query --addr "$addr" --read-all --burst 12)"
    echo "    $burst_out"
    [[ "$burst_out" == *"err=0"* ]] || {
        echo "dassd: overload burst saw transport errors (want ok+busy only)" >&2
        exit 1
    }
    target/release/das_query --addr "$addr" --shutdown >/dev/null
    if ! wait "$serve_pid"; then
        echo "dassd: das_serve exited nonzero" >&2
        cat "$dassd_dir/serve.log" >&2
        exit 1
    fi
    hits=$(grep -oE '"cache\.hit":[0-9]+' "$dassd_dir/m.json" | head -1 | cut -d: -f2)
    busy=$(grep -oE '"dassd\.busy":[0-9]+' "$dassd_dir/m.json" | head -1 | cut -d: -f2)
    p99=$(grep -oE '"dassd\.read\.ns":\{[^[]*"p99":[0-9]+' "$dassd_dir/m.json" |
        grep -oE '[0-9]+$' || true)
    echo "    cache.hit=${hits:-0} dassd.busy=${busy:-0} read.p99ns=${p99:-0}"
    if [[ -z "${hits:-}" || "$hits" -le 0 ]]; then
        echo "dassd: overlapping reads never hit the chunk cache" >&2
        exit 1
    fi
    if [[ -z "${busy:-}" || "$busy" -le 0 ]]; then
        echo "dassd: the overload burst never tripped admission control" >&2
        exit 1
    fi
    if [[ -z "${p99:-}" || "$p99" -le 0 ]]; then
        echo "dassd: the read latency histogram is empty" >&2
        exit 1
    fi
    # Every byte the gate asked for, and no other, was counted as served:
    # two 4 x 200 windows, the eval's f64 output, and one whole 8 x 9000
    # corpus per burst connection that got past admission.
    burst_ok=$(grep -oE 'ok=[0-9]+' <<<"$burst_out" | cut -d= -f2)
    served=$(grep -oE '"dassd\.bytes_served":[0-9]+' "$dassd_dir/m.json" | head -1 | cut -d: -f2)
    want_served=$((2 * 4 * 200 * 4 + ${eval_values:-0} * 8 + ${burst_ok:-0} * 8 * 9000 * 4))
    if [[ -z "${eval_values:-}" || "${served:-0}" -ne "$want_served" ]]; then
        echo "dassd: bytes_served=${served:-0}, the gate's requests add up to $want_served" >&2
        echo "  ($eval_out; $burst_out)" >&2
        exit 1
    fi
    # The serve path sends from borrowed cache rows; an owned copy per
    # frame is how it got slow, so none may come back.
    if git grep -n 'to_vec()' -- crates/core/src/dassd/server.rs; then
        echo "dassd: server.rs copies a payload with to_vec() again" >&2
        exit 1
    fi

    # Ingest gate: trickle a corpus (one member bit-rotted) into a
    # spool under an arrival-fault plan, and prove three things with
    # the real binary: damaged files quarantine while the rest recover
    # (windows still emit), a kill -9 mid-run plus a resume re-emits
    # nothing, and the union of reports from the interrupted run is
    # byte-identical to an uninterrupted drain.
    echo "==> ingest: spool drain under faults + kill/resume gate"
    ingest_dir="$ci_tmp/ingest"
    mkdir "$ingest_dir"
    target/release/das_gen -d "$ingest_dir/corpus" -c 6 -r 20 -m 8 >/dev/null
    minute_files=("$ingest_dir/corpus"/*.dasf)
    [[ ${#minute_files[@]} -eq 8 ]] || { echo "ingest: expected 8 members" >&2; exit 1; }
    # Bit-rot one member: validation must quarantine it, not crash.
    printf '\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff' |
        dd of="${minute_files[2]}" bs=1 seek=64 conv=notrunc status=none
    rotten="$(basename "${minute_files[2]}")"
    plan='seed=7,ingest.spool.torn=0.4,ingest.arrival.delay=0.4,ingest.arrival.duplicate=0.4'

    # Run A: uninterrupted drain of the full spool.
    mkdir -p "$ingest_dir/spoolA"
    cp "$ingest_dir/corpus"/*.dasf "$ingest_dir/spoolA/"
    target/release/das_ingest --spool "$ingest_dir/spoolA" --out "$ingest_dir/outA" \
        --once --window 2 --backoff-ms 1 --poll-ms 1 \
        --fault-plan "$plan" --metrics="$ingest_dir/mA.json" 2>"$ingest_dir/ingestA.log"
    [[ -f "$ingest_dir/spoolA/ingest.quarantine/$rotten" ]] || {
        echo "ingest: bit-rotted $rotten was not quarantined" >&2
        cat "$ingest_dir/ingestA.log" >&2
        exit 1
    }
    emitted=$(grep -oE '"ingest\.windows_emitted":[0-9]+' "$ingest_dir/mA.json" | head -1 | cut -d: -f2)
    admitted=$(grep -oE '"ingest\.admitted":[0-9]+' "$ingest_dir/mA.json" | head -1 | cut -d: -f2)
    echo "    run A: admitted=${admitted:-0} windows_emitted=${emitted:-0} ($rotten quarantined)"
    if [[ -z "${emitted:-}" || "$emitted" -le 0 ]]; then
        echo "ingest: faulted drain emitted no windows" >&2
        cat "$ingest_dir/ingestA.log" >&2
        exit 1
    fi

    # Run B: stage half the corpus, run the always-on loop until the
    # first report lands, kill -9, stage the rest, resume with a drain.
    mkdir -p "$ingest_dir/spoolB"
    cp "${minute_files[@]:0:4}" "$ingest_dir/spoolB/"
    target/release/das_ingest --spool "$ingest_dir/spoolB" --out "$ingest_dir/outB" \
        --window 2 --backoff-ms 1 --poll-ms 10 \
        --fault-plan "$plan" >"$ingest_dir/ingestB.log" 2>&1 &
    ingest_pid=$!
    for _ in $(seq 1 200); do
        compgen -G "$ingest_dir/outB/window_*.json" >/dev/null && break
        sleep 0.1
    done
    compgen -G "$ingest_dir/outB/window_*.json" >/dev/null || {
        echo "ingest: always-on loop never emitted a first window" >&2
        cat "$ingest_dir/ingestB.log" >&2
        exit 1
    }
    kill -9 "$ingest_pid" 2>/dev/null || true
    wait "$ingest_pid" 2>/dev/null || true
    # Simulate the worst crash window: the report landed but the
    # checkpoint never committed. Resume must re-derive the frontier,
    # notice the report already on disk, and skip it — not re-emit.
    pre_report="$(ls "$ingest_dir"/outB/window_*.json | head -1)"
    pre_inode="$(stat -c %i "$pre_report")"
    rm -f "$ingest_dir/outB/checkpoint.json"
    cp "${minute_files[@]:4}" "$ingest_dir/spoolB/"
    target/release/das_ingest --spool "$ingest_dir/spoolB" --out "$ingest_dir/outB" \
        --once --window 2 --backoff-ms 1 --poll-ms 1 \
        --fault-plan "$plan" --metrics="$ingest_dir/mB.json" 2>>"$ingest_dir/ingestB.log"
    skipped=$(grep -oE '"ingest\.windows_skipped":[0-9]+' "$ingest_dir/mB.json" | head -1 | cut -d: -f2)
    echo "    run B: resumed after kill -9 + lost checkpoint, windows_skipped=${skipped:-0}"
    if [[ -z "${skipped:-}" || "$skipped" -le 0 ]]; then
        echo "ingest: resume re-evaluated windows already emitted before the kill" >&2
        cat "$ingest_dir/ingestB.log" >&2
        exit 1
    fi
    if [[ "$(stat -c %i "$pre_report")" != "$pre_inode" ]]; then
        echo "ingest: resume rewrote $(basename "$pre_report") (inode changed — duplicate emission)" >&2
        exit 1
    fi
    # The report unions must match exactly — same window set, same bytes.
    a_reports=$(cd "$ingest_dir/outA" && ls window_*.json)
    b_reports=$(cd "$ingest_dir/outB" && ls window_*.json)
    if [[ "$a_reports" != "$b_reports" ]]; then
        echo "ingest: interrupted run emitted a different window set" >&2
        diff <(echo "$a_reports") <(echo "$b_reports") >&2 || true
        exit 1
    fi
    for r in $a_reports; do
        cmp "$ingest_dir/outA/$r" "$ingest_dir/outB/$r" || {
            echo "ingest: $r differs between interrupted and uninterrupted runs" >&2
            exit 1
        }
    done
    echo "    report union byte-identical across kill/resume ($(echo "$a_reports" | wc -l) windows)"

    # Run C: the always-on loop with a 5 s poll. A minute renamed into
    # the spool after start must be reported within 2 s, which only the
    # spool watch can do: the poll alone scans 2.5-5 s later.
    mkdir -p "$ingest_dir/spoolC" "$ingest_dir/stageC"
    cp "${minute_files[@]:4:2}" "$ingest_dir/spoolC/"
    cp "${minute_files[6]}" "$ingest_dir/stageC/"
    target/release/das_ingest --spool "$ingest_dir/spoolC" --out "$ingest_dir/outC" \
        --window 1 --poll-ms 5000 >"$ingest_dir/ingestC.log" 2>&1 &
    ingest_pid=$!
    # The first report means the first scan is over and the loop waits.
    for _ in $(seq 1 200); do
        compgen -G "$ingest_dir/outC/window_000000_*.json" >/dev/null && break
        sleep 0.1
    done
    mv "$ingest_dir/stageC/$(basename "${minute_files[6]}")" "$ingest_dir/spoolC/"
    t0=$(date +%s%N)
    while (($(date +%s%N) - t0 < 2000000000)); do
        compgen -G "$ingest_dir/outC/window_000001_*.json" >/dev/null && break
        sleep 0.05
    done
    woke=0
    compgen -G "$ingest_dir/outC/window_000001_*.json" >/dev/null && woke=1
    kill -TERM "$ingest_pid" 2>/dev/null || true
    wait "$ingest_pid" 2>/dev/null || true
    if [[ $woke -ne 1 ]]; then
        echo "ingest: a minute renamed into a --poll-ms 5000 spool was not reported within 2 s" >&2
        cat "$ingest_dir/ingestC.log" >&2
        exit 1
    fi
    echo "    run C: a minute renamed in under --poll-ms 5000 was reported within 2 s"

    # Telemetry gate: liveness probes, windowed rates, and the panic
    # flight recorder. Three claims, each checked with the real
    # binaries: Health answers with a nonzero uptime; a request burst
    # shows up as a nonzero *windowed rate* in MetricsSeries (das_top
    # derives req/s from snapshot deltas, not cumulative counters); and
    # an injected panic produces a well-formed flight record.
    echo "==> telemetry: health + rate series + flight recorder gate"
    # Both daemons are handlers on one connection core (dassd::conn):
    # one accept loop, one frame loop, and the ingest probe reads no
    # frames itself. Test modules are skipped.
    core_src="$(find crates/core/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ": " $0 }' {} +)"
    if [[ $(grep -c 'TcpListener::bind' <<<"$core_src") -gt 1 || $(grep -c '\.accept()' <<<"$core_src") -gt 1 ]] \
        || grep '^crates/core/src/ingest/.*read_frame(' <<<"$core_src"; then
        echo "telemetry: a second accept or frame loop beside dassd::conn" >&2
        exit 1
    fi
    # Poll with `kill -0` (a `wait` could hang): true once `$1` is gone.
    gone_within_3s() {
        for _ in $(seq 1 30); do
            kill -0 "$1" 2>/dev/null || return 0
            sleep 0.1
        done
        return 1
    }
    tele_dir="$ci_tmp/tele"
    mkdir "$tele_dir"
    target/release/das_gen -d "$tele_dir/corpus" -c 8 -r 50 -m 3 >/dev/null
    target/release/das_serve -d "$tele_dir/corpus" --workers 2 --queue 4 \
        >"$tele_dir/serve.log" 2>/dev/null &
    tele_pid=$!
    for _ in $(seq 1 100); do
        grep -q '^dassd listening on ' "$tele_dir/serve.log" && break
        sleep 0.1
    done
    tele_addr="$(sed -n 's/^dassd listening on //p' "$tele_dir/serve.log" | head -1)"
    [[ -n "$tele_addr" ]] || { echo "telemetry: server never announced" >&2; exit 1; }
    sleep 0.3
    health="$(target/release/das_query --addr "$tele_addr" --health)"
    echo "    $health"
    uptime=$(grep -oE 'uptime_ms=[0-9]+' <<<"$health" | head -1 | cut -d= -f2)
    if [[ -z "${uptime:-}" || "$uptime" -le 0 ]]; then
        echo "telemetry: Health reported no uptime" >&2
        exit 1
    fi
    grep -qE 'component=dassd version=[0-9]' <<<"$health" || {
        echo "telemetry: Health is not self-describing" >&2
        exit 1
    }
    # Poll, burst, poll: the second frame's peak windowed rate must be
    # nonzero — cumulative counters would not move a *rate* without a
    # fresh delta window covering the burst.
    target/release/das_top --addr "$tele_addr" --once >/dev/null
    target/release/das_query --addr "$tele_addr" --read-all --burst 8 >/dev/null
    top_line="$(target/release/das_top --addr "$tele_addr" --once | tail -1)"
    echo "    $top_line"
    peak=$(grep -oE 'req_per_sec_peak=[0-9]+\.[0-9]+' <<<"$top_line" | cut -d= -f2)
    if [[ -z "${peak:-}" || "$peak" == "0.000" ]]; then
        echo "telemetry: burst not visible as a windowed request rate" >&2
        exit 1
    fi
    # A peer that sends 2 bytes of a length prefix and goes silent must
    # not keep the daemon alive: it is gone within 3 s of --shutdown.
    exec 3<>"/dev/tcp/${tele_addr%:*}/${tele_addr##*:}"
    printf '\x05\x00' >&3
    sleep 0.3
    target/release/das_query --addr "$tele_addr" --shutdown >/dev/null
    gone_within_3s "$tele_pid" || { echo "telemetry: das_serve outlived --shutdown behind a stalled peer" >&2; exit 1; }
    exec 3>&-
    wait "$tele_pid" || { echo "telemetry: das_serve exited nonzero" >&2; exit 1; }

    # Ingest answers the same probes on its local socket, and SIGTERM
    # shuts the loop down cleanly, still emitting the metrics snapshot.
    mkdir -p "$tele_dir/spool"
    cp "$tele_dir/corpus"/*.dasf "$tele_dir/spool/"
    target/release/das_ingest --spool "$tele_dir/spool" --out "$tele_dir/win" \
        --window 1 --poll-ms 20 --probe-addr 127.0.0.1:0 \
        --metrics="$tele_dir/ingest_m.json" >"$tele_dir/ingest.log" 2>/dev/null &
    probe_pid=$!
    for _ in $(seq 1 100); do
        grep -q '^das_ingest probe listening on ' "$tele_dir/ingest.log" && break
        sleep 0.1
    done
    probe_addr="$(sed -n 's/^das_ingest probe listening on //p' "$tele_dir/ingest.log" | head -1)"
    [[ -n "$probe_addr" ]] || { echo "telemetry: ingest probe never announced" >&2; exit 1; }
    probe_health="$(target/release/das_query --addr "$probe_addr" --health)"
    echo "    $probe_health"
    grep -q 'component=das_ingest' <<<"$probe_health" || {
        echo "telemetry: ingest probe Health misidentified itself" >&2
        exit 1
    }
    exec 3<>"/dev/tcp/${probe_addr%:*}/${probe_addr##*:}"
    printf '\x05\x00' >&3
    sleep 0.3
    kill -TERM "$probe_pid"
    gone_within_3s "$probe_pid" || { echo "telemetry: das_ingest outlived SIGTERM behind a stalled peer" >&2; exit 1; }
    exec 3>&-
    wait "$probe_pid" || { echo "telemetry: SIGTERM was not a clean shutdown" >&2; exit 1; }
    grep -qF '"component":"das_ingest"' "$tele_dir/ingest_m.json" || {
        echo "telemetry: no metrics snapshot after SIGTERM" >&2
        exit 1
    }

    # Injected panic in a child thread: the process must die nonzero
    # and leave a parseable flight record carrying the metrics
    # snapshot, the log tail, and the trace tail.
    if target/release/das_serve -d "$tele_dir/corpus" \
        --flight "$tele_dir/flight.json" --inject-panic-ms 300 \
        >/dev/null 2>"$tele_dir/panic.log"; then
        echo "telemetry: injected panic exited 0" >&2
        exit 1
    fi
    [[ -f "$tele_dir/flight.json" ]] || {
        echo "telemetry: no flight record after injected panic" >&2
        cat "$tele_dir/panic.log" >&2
        exit 1
    }
    for want in '"component":"dassd"' '"reason":"panic at ' \
        '"metrics":' '"log_tail":' '"trace_tail":'; do
        grep -qF "$want" "$tele_dir/flight.json" || {
            echo "telemetry: flight record missing $want:" >&2
            cat "$tele_dir/flight.json" >&2
            exit 1
        }
    done
    echo "    uptime_ms=$uptime, burst peak=$peak req/s, flight record well-formed"

    # Descriptor exhaustion: with 9 descriptors, 40 idle clients fill the
    # table, and every accept fails until they leave. The accept loop
    # must back off, not spin: under 5 % of a core (utime + stime) over
    # 2 s, the failures counted, and a ping answered once the clients
    # close.
    echo "==> dassd: descriptor exhaustion under prlimit --nofile"
    fd_dir="$ci_tmp/nofile"
    mkdir "$fd_dir"
    target/release/das_gen -d "$fd_dir/corpus" -c 4 -r 50 -m 1 >/dev/null
    prlimit --nofile=9 target/release/das_serve -d "$fd_dir/corpus" --workers 2 --queue 4 \
        --metrics="$fd_dir/m.json" >"$fd_dir/serve.log" 2>/dev/null &
    fd_pid=$!
    for _ in $(seq 1 100); do
        grep -q '^dassd listening on ' "$fd_dir/serve.log" && break
        sleep 0.1
    done
    fd_addr="$(sed -n 's/^dassd listening on //p' "$fd_dir/serve.log" | head -1)"
    [[ -n "$fd_addr" ]] || { echo "nofile: server never announced" >&2; exit 1; }
    clients=()
    for _ in $(seq 1 40); do
        exec {client}<>"/dev/tcp/${fd_addr%:*}/${fd_addr##*:}"
        clients+=("$client")
    done
    sleep 0.5
    # utime + stime in clock ticks: fields 14 and 15 of /proc/<pid>/stat,
    # counted after the parenthesised command name
    cpu_ticks() { awk '{ sub(/^.*\) /, ""); print $12 + $13 }' "/proc/$1/stat"; }
    ticks0=$(cpu_ticks "$fd_pid")
    sleep 2
    used=$(($(cpu_ticks "$fd_pid") - ticks0))
    tick_budget=$((2 * $(getconf CLK_TCK) / 20))
    for client in "${clients[@]}"; do exec {client}>&-; done
    if [[ $used -ge $tick_budget ]]; then
        echo "nofile: das_serve used $used clock ticks in 2 s with its descriptors exhausted (budget $tick_budget)" >&2
        exit 1
    fi
    pong=0
    for _ in $(seq 1 20); do
        if timeout 5 target/release/das_query --addr "$fd_addr" --ping >/dev/null 2>&1; then
            pong=1
            break
        fi
        sleep 0.2
    done
    [[ $pong -eq 1 ]] || { echo "nofile: no ping answered after the clients closed" >&2; exit 1; }
    target/release/das_query --addr "$fd_addr" --shutdown >/dev/null
    gone_within_3s "$fd_pid" || { echo "nofile: das_serve outlived --shutdown" >&2; exit 1; }
    wait "$fd_pid" || { echo "nofile: das_serve exited nonzero" >&2; exit 1; }
    accept_errors=$(grep -oE '"dassd\.accept\.errors":[0-9]+' "$fd_dir/m.json" | cut -d: -f2 || true)
    if [[ -z "$accept_errors" || "$accept_errors" -eq 0 ]]; then
        echo "nofile: no accept errors counted: the descriptor table never filled" >&2
        exit 1
    fi
    echo "    40 idle clients on 9 descriptors: $used of $tick_budget ticks, $accept_errors accept errors, ping answered"

    # Benchmark gate: benchmark/ is a package of its own that consumes
    # the workspace's public API (dsp kernels, dasa::run, IoPlan, dassd,
    # ingest) and checks every op against an oracle. Build it, run its
    # tests, and run every workload once untraced and once traced at
    # smoke size, so a break in that API — or an output that no longer
    # matches its oracle — fails here and not in the measurement
    # pipeline. The numbers of a --quick run mean nothing.
    echo "==> benchmark: das_bench tests + all --quick"
    cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
    bench_log="$ci_tmp/bench.log"
    if ! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
        all --quick >"$bench_log" 2>&1; then
        echo "benchmark: das_bench all --quick failed:" >&2
        tail -n 40 "$bench_log" >&2
        exit 1
    fi
    if grep -qF '"correct": false' "$bench_log"; then
        echo "benchmark: a das_bench run reported \"correct\": false:" >&2
        grep -F '"correct": false' "$bench_log" | cut -c1-400 >&2
        exit 1
    fi
    runs=$(grep -cF '"correct": true' "$bench_log")
    [[ $runs -eq 8 ]] || {
        echo "benchmark: expected 8 correct runs (4 workloads x untraced/traced), saw $runs" >&2
        exit 1
    }
    echo "    $runs runs correct"
fi

echo "==> CI green"
