#!/usr/bin/env bash
# CI performance gate: re-run the committed throughput benchmarks and
# compare each gated field against its committed baseline. Fails if
# throughput regressed by more than the tolerance (default 20%, i.e.
# new < 0.80 × committed).
#
#   scripts/bench_gate.sh                 # gate P1 (engine) + P6 (serve)
#   BENCH_GATE_TOLERANCE=0.5 scripts/bench_gate.sh   # looser gate
#
# Gated benchmarks:
#   exp_perf       -> BENCH_engine.json   P1 engine throughput
#                     (`fast_runs_per_sec` only; the reference baseline
#                      and `speedup` are report-only)
#   exp_serve_perf -> BENCH_serve.json    P6 serve-tier throughput + p99
#
# Placement search is measured end to end by segbench's `place` workload
# (see segbench/README.md), not gated here.
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

    echo "== bench gate: cargo run --release -p segbus-report --bin $bin (best of $ROUNDS) =="
    local best=() i k v
    for ((k = 0; k < ${#keys[@]}; k++)); do
        best+=("")
    done
    for ((i = 1; i <= ROUNDS; i++)); do
        if ! cargo run --release -q -p segbus-report --bin "$bin"; then
            restore_one "$baseline"
            echo "bench gate: $bin run $i failed" >&2
            return 1
        fi
        local line="bench gate: run $i ->"
        for ((k = 0; k < ${#keys[@]}; k++)); do
            v=$(json_field "$baseline" "${fields[$k]}")
            if [[ -z "$v" ]]; then
                restore_one "$baseline"
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
gate BENCH_serve.json exp_serve_perf "Serve tier throughput" serve_reqs_per_sec max:serve_p99_us || fails=1

if [[ "$fails" -ne 0 ]]; then
    echo "bench gate: FAIL" >&2
    exit 1
fi
echo "bench gate: all OK"
