#!/usr/bin/env bash
# CI performance gate: re-run the committed throughput benchmarks and
# compare each gated field against its committed baseline. Fails if
# throughput regressed by more than the tolerance (default 20%, i.e.
# new < 0.80 × committed).
#
#   scripts/bench_gate.sh                 # gate P1 (engine) + P5 (placement)
#   BENCH_GATE_TOLERANCE=0.5 scripts/bench_gate.sh   # looser gate
#   BENCH_GATE_COUNTER=instructions scripts/bench_gate.sh
#                                         # opt-in: gate on retired
#                                         # instructions instead of wall
#                                         # clock (see below)
#
# Gated benchmarks:
#   exp_perf       -> BENCH_engine.json   P1 engine throughput
#                     (`fast_runs_per_sec` only; the reference baseline
#                      and `speedup` are report-only)
#   exp_place_perf -> BENCH_place.json    P5 parallel placement search
#                     (`runs_per_sec`, plus the P10 incremental-portfolio
#                      leg: `place_moves_per_sec` throughput on the
#                      120-process grid and `grid_speedup`, the ratio of
#                      the full-rebuild path over incremental evaluation
#                      on the identical trajectory)
#   exp_serve_perf -> BENCH_serve.json    P6 serve-tier throughput + p99
#
# Each benchmark runs five times and every field is gated on its
# best-of-5: the gate asks "can this machine still reach the committed
# throughput", and scheduler hiccups only ever subtract — the best
# observation is the least noisy estimate of the machine's capability,
# so a single slow run (or three) cannot flip the verdict.
#
# Keys are higher-is-better by default; a "max:" prefix (e.g.
# max:serve_p99_us) marks a lower-is-better field: the best observation
# is the *minimum* across rounds, and the gate fails when it exceeds
# committed / tolerance.
#
# Counter mode (BENCH_GATE_COUNTER=instructions): each benchmark run is
# wrapped in `perf stat -e instructions` and the gate *additionally*
# compares the best-of-5 (minimum) instruction count against the
# committed `<bin>_instructions` field of BENCH_counters.json, when that
# file exists — instruction counts are near-deterministic, so this is
# the noise-immune absolute budget shared runners cannot give you on
# wall clock. Without a committed baseline the counts are report-only
# (printed so they can be committed). When `perf` is missing or
# unusable (containers without perf_event access), the script says so
# and falls back to the ordinary wall-clock gate.
#
# The committed baselines are restored afterwards — also on ctrl-C or a
# runner kill: every parked baseline is restored by an EXIT/INT/TERM
# trap, so an interrupted run can never leave an overwritten
# BENCH_*.json behind. Machine-to-machine absolute numbers vary; the
# files are only refreshed deliberately, together with engine or search
# changes.
set -euo pipefail
cd "$(dirname "$0")/.."

# BENCH_GATE_THRESHOLD is the historical name, kept as a fallback.
TOLERANCE="${BENCH_GATE_TOLERANCE:-${BENCH_GATE_THRESHOLD:-0.80}}"
ROUNDS=5
fails=0

# -- baseline parking ---------------------------------------------------------
# park/restore_one bracket the rounds of one gate; the trap is the safety
# net that restores whatever is still parked when the script dies mid-run.
PARKED=()
restore_parked() {
    local pair
    [[ ${#PARKED[@]} -gt 0 ]] || return 0
    for pair in "${PARKED[@]}"; do
        cp "${pair#*$'\t'}" "${pair%%$'\t'*}" 2>/dev/null || true
        rm -f "${pair#*$'\t'}"
    done
    PARKED=()
}
# INT/TERM must *exit* (which fires the EXIT trap and restores) rather
# than restore inline: a trap that returns would resume the rounds loop
# with the parking registry already cleared, and the next bench run
# would overwrite the baseline for good.
trap restore_parked EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

park() {
    local saved
    saved=$(mktemp)
    cp "$1" "$saved"
    PARKED+=("$1"$'\t'"$saved")
}

restore_one() {
    local pair rest=()
    [[ ${#PARKED[@]} -gt 0 ]] || return 0
    for pair in "${PARKED[@]}"; do
        if [[ "${pair%%$'\t'*}" == "$1" ]]; then
            cp "${pair#*$'\t'}" "$1"
            rm -f "${pair#*$'\t'}"
        else
            rest+=("$pair")
        fi
    done
    PARKED=("${rest[@]+"${rest[@]}"}")
}

# -- counter mode -------------------------------------------------------------
COUNTER="${BENCH_GATE_COUNTER:-}"
PERF=""
if [[ "$COUNTER" == "instructions" ]]; then
    if command -v perf >/dev/null 2>&1 &&
        perf stat -e instructions -- true >/dev/null 2>&1; then
        PERF=1
        echo "bench gate: counter mode — gating on retired instructions (perf stat)"
    else
        echo "bench gate: BENCH_GATE_COUNTER=instructions but perf stat is" \
            "unavailable here — falling back to the wall-clock gate" >&2
    fi
elif [[ -n "$COUNTER" ]]; then
    echo "bench gate: unknown BENCH_GATE_COUNTER \"$COUNTER\" (supported: instructions)" >&2
    exit 1
fi

COUNTS_FILE=""

# run_bench <bin> — one benchmark run; in counter mode the run is wrapped
# in perf stat and its instruction count appended to $COUNTS_FILE.
run_bench() {
    local bin="$1"
    if [[ -n "$PERF" ]]; then
        local out
        out=$(mktemp)
        if ! perf stat -x, -e instructions -o "$out" -- \
            cargo run --release -q -p segbus-report --bin "$bin"; then
            rm -f "$out"
            return 1
        fi
        # Field 3 is the event name — "instructions:u" when unprivileged.
        awk -F, '$3 ~ /^instructions/ && $1 ~ /^[0-9]+$/ { print $1 }' "$out" >>"$COUNTS_FILE"
        rm -f "$out"
    else
        cargo run --release -q -p segbus-report --bin "$bin"
    fi
}

json_field() {
    # json_field <file> <key> — the benches write one "key": value per line.
    awk -F: -v key="\"$2\"" '$1 ~ key { gsub(/[ ,]/, "", $2); print $2 }' "$1"
}

# gate <baseline.json> <bin> <title> <key> [<key>...]
gate() {
    local baseline="$1" bin="$2" title="$3"
    shift 3
    local keys=("$@")

    if [[ ! -f "$baseline" ]]; then
        echo "bench gate: no committed $baseline baseline" >&2
        return 1
    fi
    # Strip the direction prefix: fields[k] is the JSON key, lower[k]=1
    # marks a lower-is-better ("max:") gate.
    local fields=() lower=() key
    for key in "${keys[@]}"; do
        if [[ "$key" == max:* ]]; then
            fields+=("${key#max:}")
            lower+=(1)
        else
            fields+=("$key")
            lower+=(0)
        fi
    done

    local old=()
    for key in "${fields[@]}"; do
        local v
        v=$(json_field "$baseline" "$key")
        if [[ -z "$v" ]]; then
            echo "bench gate: cannot read $key from $baseline" >&2
            return 1
        fi
        old+=("$v")
    done

    # The bench overwrites its baseline in the cwd; park the committed
    # copy — restore_one puts it back below, the trap covers interrupts.
    park "$baseline"
    COUNTS_FILE=$(mktemp)

    if [[ -n "$PERF" ]]; then
        # Pre-build so round 1's instruction count measures the bench,
        # not rustc.
        cargo build --release -q -p segbus-report --bin "$bin"
    fi

    echo "== bench gate: cargo run --release -p segbus-report --bin $bin (best of $ROUNDS) =="
    local best=() i k v
    for ((k = 0; k < ${#keys[@]}; k++)); do
        best+=("")
    done
    for ((i = 1; i <= ROUNDS; i++)); do
        if ! run_bench "$bin"; then
            restore_one "$baseline"
            rm -f "$COUNTS_FILE"
            echo "bench gate: $bin run $i failed" >&2
            return 1
        fi
        local line="bench gate: run $i ->"
        for ((k = 0; k < ${#keys[@]}; k++)); do
            v=$(json_field "$baseline" "${fields[$k]}")
            if [[ -z "$v" ]]; then
                restore_one "$baseline"
                rm -f "$COUNTS_FILE"
                echo "bench gate: $bin run $i produced no ${fields[$k]}" >&2
                return 1
            fi
            line+=" ${fields[$k]} ${v}"
            # Best across rounds: max normally, min for "max:" fields.
            if [[ -z "${best[$k]}" ]] ||
                awk -v a="$v" -v b="${best[$k]}" -v lo="${lower[$k]}" \
                    'BEGIN { exit !(lo ? (a < b) : (a > b)) }'; then
                best[$k]="$v"
            fi
        done
        echo "$line"
    done
    restore_one "$baseline"

    local ok=1 summary=""
    for ((k = 0; k < ${#keys[@]}; k++)); do
        local verdict field_ok
        # Higher-is-better gates on new/old; lower-is-better ("max:")
        # inverts the ratio so the same tolerance applies.
        verdict=$(awk -v new="${best[$k]}" -v old="${old[$k]}" \
            -v tol="$TOLERANCE" -v lo="${lower[$k]}" 'BEGIN {
            ratio = lo ? old / new : new / old
            printf "ratio %.3f (tolerance %.2f)\n", ratio, tol
            exit (ratio < tol) ? 1 : 0
        }') && field_ok=1 || field_ok=0
        echo "bench gate [$title/${fields[$k]}]: committed ${old[$k]}, best of $ROUNDS ${best[$k]} — ${verdict}"
        summary+="| ${fields[$k]} | ${old[$k]} | ${best[$k]} | ${verdict%$'\n'} |"$'\n'
        if [[ "$field_ok" -ne 1 ]]; then
            ok=0
        fi
    done

    # Counter verdict: minimum instruction count across the rounds vs the
    # committed budget (lower is better), report-only without a baseline.
    if [[ -n "$PERF" ]]; then
        local insn
        insn=$(sort -n "$COUNTS_FILE" | head -n 1)
        if [[ -n "$insn" ]]; then
            local budget=""
            [[ -f BENCH_counters.json ]] && budget=$(json_field BENCH_counters.json "${bin}_instructions")
            if [[ -n "$budget" ]]; then
                local cverdict cok
                cverdict=$(awk -v new="$insn" -v old="$budget" -v tol="$TOLERANCE" 'BEGIN {
                    ratio = old / new
                    printf "ratio %.3f (tolerance %.2f)\n", ratio, tol
                    exit (ratio < tol) ? 1 : 0
                }') && cok=1 || cok=0
                echo "bench gate [$title/instructions]: committed $budget, best of $ROUNDS $insn — ${cverdict}"
                summary+="| instructions | $budget | $insn | ${cverdict%$'\n'} |"$'\n'
                if [[ "$cok" -ne 1 ]]; then
                    ok=0
                fi
            else
                echo "bench gate [$title/instructions]: best of $ROUNDS $insn (no ${bin}_instructions budget in BENCH_counters.json — report only)"
            fi
        fi
    fi
    rm -f "$COUNTS_FILE"

    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        {
            echo "### $title gate"
            echo ""
            echo "| field | committed | best of $ROUNDS | verdict |"
            echo "|---|---|---|---|"
            printf '%s' "$summary"
            echo ""
        } >>"$GITHUB_STEP_SUMMARY"
    fi

    if [[ "$ok" -ne 1 ]]; then
        echo "bench gate [$title]: FAIL — regressed more than $(awk -v t="$TOLERANCE" 'BEGIN { printf "%.0f%%", (1-t)*100 }')" >&2
        return 1
    fi
    echo "bench gate [$title]: OK"
}

gate BENCH_engine.json exp_perf "Engine throughput" fast_runs_per_sec || fails=1
gate BENCH_place.json exp_place_perf "Placement search throughput" \
    runs_per_sec place_moves_per_sec grid_speedup || fails=1
gate BENCH_serve.json exp_serve_perf "Serve tier throughput" serve_reqs_per_sec max:serve_p99_us || fails=1

if [[ "$fails" -ne 0 ]]; then
    echo "bench gate: FAIL" >&2
    exit 1
fi
echo "bench gate: all OK"
