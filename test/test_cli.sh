#!/usr/bin/env bash
# CLI smoke test: subcommand behaviour and the exit-code policy
#   0 success / 1 verify violations / 2 user error / 3 internal error.
set -u

CLI="$1"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fails=0

expect_exit() {
  local want="$1" label="$2"
  shift 2
  "$@" >"$TMP/out" 2>"$TMP/err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $label: expected exit $want, got $got" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    fails=$((fails + 1))
  fi
}

expect_stderr_line_count() {
  local label="$1"
  local lines
  lines=$(wc -l <"$TMP/err")
  if [ "$lines" -ne 1 ]; then
    echo "FAIL: $label: expected a one-line stderr diagnostic, got $lines lines" >&2
    fails=$((fails + 1))
  fi
}

# --- success paths ---
expect_exit 0 "info" "$CLI" info
expect_exit 0 "compile quick" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --save "$TMP/good.plan"
expect_exit 0 "verify clean plan" "$CLI" verify "$TMP/good.plan"
grep -q "satisfies all verifier invariants" "$TMP/out" || {
  echo "FAIL: verify did not report a clean plan" >&2
  fails=$((fails + 1))
}

# --- deadline smoke: a 1s budget still yields a valid best-so-far plan ---
expect_exit 0 "deadline smoke" "$CLI" compile -m resnet18 -c S -b 4 \
  --deadline 1 --verify

# --- checkpoint / resume round trip ---
expect_exit 0 "checkpoint write" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --checkpoint "$TMP/ck.txt"
[ -f "$TMP/ck.txt" ] || { echo "FAIL: no checkpoint written" >&2; fails=$((fails + 1)); }
expect_exit 0 "resume" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --resume "$TMP/ck.txt"

# --- exit 1: verify finds violations ---
# Corrupt the archived cuts so the plan no longer covers the model: the
# file still parses if we keep it structurally valid, so instead verify a
# plan whose stored batch disagrees -- simplest true-violation fixture is
# produced by verifying a plan file compiled for different content.  A
# structurally-broken file is exit 2; a *verifiably wrong* plan needs
# record surgery, which the unit tests cover.  Here we check the exit-1
# wiring with a hand-made minimal violation: none is constructible from
# the CLI alone, so this section only asserts the 0/2 split plus exit 3.

# --- exit 2: user errors, one-line diagnostics ---
expect_exit 2 "unknown model" "$CLI" compile -m nosuchnet --quick
expect_stderr_line_count "unknown model"
expect_exit 2 "unknown chip" "$CLI" compile -c Z --quick
expect_stderr_line_count "unknown chip"
expect_exit 2 "bad faults spec" "$CLI" compile -m lenet5 --quick --faults "dead:banana"
expect_stderr_line_count "bad faults spec"
expect_exit 2 "bad transient spec" "$CLI" compile -m lenet5 --quick --faults "drift:2.0"
expect_stderr_line_count "bad transient spec"
expect_exit 2 "malformed fault event" "$CLI" compile -m lenet5 --quick \
  --faults "dead:1" --fault-at=-1
expect_stderr_line_count "malformed fault event"
grep -q "fault event #0 has negative time" "$TMP/err" || {
  echo "FAIL: malformed fault event not located" >&2
  fails=$((fails + 1))
}
expect_exit 2 "fault-at without faults" "$CLI" compile -m lenet5 --quick --fault-at=1
expect_stderr_line_count "fault-at without faults"
expect_exit 2 "negative deadline" "$CLI" compile -m lenet5 --quick --deadline=-4
expect_stderr_line_count "negative deadline"
echo "garbage" >"$TMP/bad.plan"
expect_exit 2 "corrupt plan verify" "$CLI" verify "$TMP/bad.plan"
expect_exit 2 "corrupt plan load" "$CLI" plan "$TMP/bad.plan"
echo "compass-plan 9" >"$TMP/v9.plan"
expect_exit 2 "version mismatch" "$CLI" verify "$TMP/v9.plan"
grep -q "unsupported compass-plan version" "$TMP/err" || {
  echo "FAIL: version mismatch not diagnosed" >&2
  fails=$((fails + 1))
}
echo "garbage" >"$TMP/bad.ck"
expect_exit 2 "corrupt checkpoint resume" "$CLI" compile -m lenet5 --quick \
  --resume "$TMP/bad.ck"

# --- exit 2: usage errors (cmdliner's own 124 is remapped) ---
expect_exit 2 "bad flag value" "$CLI" compile -b notanint
expect_exit 2 "-j -1" "$CLI" compile -m lenet5 --quick -j -1
expect_exit 2 "negative --jobs" "$CLI" compile -m lenet5 --quick --jobs=-1
grep -q "jobs must be >= 0" "$TMP/err" || {
  echo "FAIL: negative --jobs not diagnosed" >&2
  fails=$((fails + 1))
}
expect_exit 2 "plan on a directory" "$CLI" plan "$TMP"

# --- model, --dot and --csv follow the artifact policy ---
printf 'model tiny\ninput in 3x8x8\nconv c from in out=4 kernel=3\nrelu r from c\n' \
  >"$TMP/tiny.model"
expect_exit 0 "model with --dot" "$CLI" model "$TMP/tiny.model" --dot "$TMP/tiny.dot"
grep -q "digraph" "$TMP/tiny.dot" || {
  echo "FAIL: model --dot wrote no Graphviz file" >&2
  fails=$((fails + 1))
}
expect_exit 2 "unwritable --dot" "$CLI" model "$TMP/tiny.model" --dot /nonexistent/x.dot
expect_stderr_line_count "unwritable --dot"
expect_exit 2 "unwritable --csv" "$CLI" sweep --models lenet5 --chips S --quick \
  --csv /nonexistent/x.csv
expect_stderr_line_count "unwritable --csv"
[ ! -s "$TMP/out" ] || {
  echo "FAIL: sweep printed its table before rejecting an unwritable --csv" >&2
  fails=$((fails + 1))
}

# --- wiring: every subcommand's help renders, and every subcommand that
#     runs compiler or inference work takes the shared harness flags ---
subcommands=$("$CLI" --help=plain | awk '/^COMMANDS/ { on = 1; next }
  /^[A-Z]/ { on = 0 } on && /^       [a-z]/ { print $1 }')
[ -n "$subcommands" ] || {
  echo "FAIL: no subcommands listed by compass --help" >&2
  fails=$((fails + 1))
}
for cmd in $subcommands; do
  expect_exit 0 "$cmd --help" "$CLI" "$cmd" --help=plain
  case "$cmd" in
  compile | verify | validity | schedule | explore | sweep | gap | infer | serve)
    for flag in --trace --metrics --failpoints; do
      grep -qE -- "^ +$flag(=|\$)" "$TMP/out" || {
        echo "FAIL: $cmd does not take the shared $flag flag" >&2
        fails=$((fails + 1))
      }
    done
    ;;
  esac
done

# --- observability: --trace / --metrics ---
expect_exit 0 "compile with trace+metrics" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --simulate --trace "$TMP/trace.json" --metrics
[ -f "$TMP/trace.json" ] || { echo "FAIL: no trace written" >&2; fails=$((fails + 1)); }
grep -q '"traceEvents"' "$TMP/trace.json" || {
  echo "FAIL: trace file lacks the traceEvents wrapper" >&2
  fails=$((fails + 1))
}
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$TMP/trace.json" >/dev/null || {
    echo "FAIL: trace file is not valid JSON" >&2
    fails=$((fails + 1))
  }
fi
for component in mvm vfu weight_write bus dram static total; do
  rows=$(grep -cE "^$component +\| +[^ |][^|]* \| +[^ |][^|]* \|" "$TMP/out")
  [ "$rows" -eq 1 ] || {
    echo "FAIL: --simulate energy table has $rows filled $component rows, expected 1" >&2
    fails=$((fails + 1))
  }
done
grep -q "ga.generations" "$TMP/out" || {
  echo "FAIL: --metrics did not print the metrics table" >&2
  fails=$((fails + 1))
}
grep -q "span summary:" "$TMP/out" || {
  echo "FAIL: --metrics with tracing did not print the span summary" >&2
  fails=$((fails + 1))
}
expect_exit 0 "gap with metrics" "$CLI" gap -m lenet5 -c S -b 4 --quick --metrics
grep -q "dp.valid_spans" "$TMP/out" || {
  echo "FAIL: gap --metrics did not print dp counters" >&2
  fails=$((fails + 1))
}
expect_exit 0 "verify with trace" "$CLI" verify --trace "$TMP/vtrace.json" "$TMP/good.plan"
[ -f "$TMP/vtrace.json" ] || { echo "FAIL: verify wrote no trace" >&2; fails=$((fails + 1)); }

# --- self-healing recovery smoke: a seeded persistent fault is detected,
#     remapped to spare capacity, and the output matches the fault-free run ---
expect_exit 0 "recovery smoke" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --faults "flip:1" --fault-seed 42 --recover --metrics
grep -q "recovered output is bit-identical to the fault-free reference" "$TMP/out" || {
  echo "FAIL: recovery smoke did not report a bit-identical recovered output" >&2
  fails=$((fails + 1))
}
if ! grep "recovery.remaps" "$TMP/out" | grep -q "[1-9]"; then
  echo "FAIL: recovery smoke reported zero recovery.remaps in --metrics" >&2
  fails=$((fails + 1))
fi

# --- fail-stop drill: dead core injected mid-simulation, plan repaired ---
expect_exit 0 "fail-stop drill" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --faults "dead:1" --fault-at 0.0001
grep -q "recovery latency" "$TMP/out" || {
  echo "FAIL: fail-stop drill printed no recovery latency" >&2
  fails=$((fails + 1))
}

# --- exit 2: unwritable output paths are located, actionable, pre-checked ---
expect_exit 2 "unwritable --trace" "$CLI" compile -m lenet5 --quick \
  --trace /nonexistent/trace.json
expect_stderr_line_count "unwritable --trace"
grep -q -- "--trace /nonexistent/trace.json: directory /nonexistent does not exist" \
  "$TMP/err" || {
  echo "FAIL: --trace diagnostic not located" >&2
  fails=$((fails + 1))
}
expect_exit 2 "unwritable --checkpoint" "$CLI" compile -m lenet5 --quick \
  --checkpoint /nonexistent/ck.txt
expect_stderr_line_count "unwritable --checkpoint"
grep -q -- "--checkpoint /nonexistent/ck.txt: directory /nonexistent does not exist" \
  "$TMP/err" || {
  echo "FAIL: --checkpoint diagnostic not located" >&2
  fails=$((fails + 1))
}
expect_exit 2 "--trace to a directory" "$CLI" compile -m lenet5 --quick --trace "$TMP"
expect_stderr_line_count "--trace to a directory"

# --- chaos: deterministic failpoints, supervised retries, salvage ---
# An injected mid-write failure is a located exit-2 user error and must
# leave neither a partial plan nor temp-file litter behind.
expect_exit 2 "injected save failure" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --failpoints "artifact.write.mid=raise@once" --save "$TMP/chaos.plan"
expect_stderr_line_count "injected save failure"
grep -q "artifact.write.mid" "$TMP/err" || {
  echo "FAIL: injected save failure diagnostic does not name the site" >&2
  fails=$((fails + 1))
}
[ ! -e "$TMP/chaos.plan" ] || {
  echo "FAIL: injected save failure left a partial plan behind" >&2
  fails=$((fails + 1))
}
if ls "$TMP"/chaos.plan.tmp.* >/dev/null 2>&1; then
  echo "FAIL: injected save failure left temp-file litter" >&2
  fails=$((fails + 1))
fi

# Every text grammar's malformed input is a one-line exit-2 diagnostic
# that names its source, line and column.  Row: label | expected stderr
# prefix after "compass: " | compass arguments (split on spaces).
printf 'model m\ninput in 3x8x8\nconv c from in out=banana kernel=3\n' >"$TMP/bad.model"
sed 's/^cuts .*/cuts 1 x 3/' "$TMP/good.plan" >"$TMP/bad_cuts.plan"
{ grep -v '^faults ' "$TMP/good.plan"; echo "faults dead:banana"; } >"$TMP/bad_faults.plan"
faults_line=$(grep -c '' "$TMP/bad_faults.plan")
sed 's/^batch .*/batch many/' "$TMP/ck.txt" >"$TMP/bad_batch.ck"
located_cases=(
  "model file|$TMP/bad.model:3:20: |model $TMP/bad.model"
  "plan file|$TMP/bad_cuts.plan:7:8: |plan $TMP/bad_cuts.plan"
  "fault spec in a plan|$TMP/bad_faults.plan:$faults_line:13: |verify $TMP/bad_faults.plan"
  "resume checkpoint|$TMP/bad_batch.ck:3:7: |compile -m lenet5 --quick --resume $TMP/bad_batch.ck"
  "--faults|--faults:1:6: |compile -m lenet5 --quick --faults dead:banana"
  "--failpoints|--failpoints:1:20: |compile -m lenet5 --quick --failpoints artifact.write.mid=explode"
)
for row in "${located_cases[@]}"; do
  IFS='|' read -r label prefix args <<<"$row"
  # shellcheck disable=SC2086 # the argument column is split on purpose
  expect_exit 2 "malformed $label" "$CLI" $args
  expect_stderr_line_count "malformed $label"
  case "$(head -n 1 "$TMP/err")" in
  "compass: $prefix"*) ;;
  *)
    echo "FAIL: malformed $label: stderr does not start with \"compass: $prefix\"" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    fails=$((fails + 1))
    ;;
  esac
done

# A torn checkpoint (crash mid-write) salvages: resume succeeds and says so.
expect_exit 0 "checkpoint for tearing" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --checkpoint "$TMP/tear.ck"
size=$(wc -c <"$TMP/tear.ck")
head -c $((size - 7)) "$TMP/tear.ck" >"$TMP/torn.ck"
expect_exit 0 "salvaged resume" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --resume "$TMP/torn.ck"
grep -q "salvaged torn checkpoint" "$TMP/out" || {
  echo "FAIL: salvaged resume printed no salvage notice" >&2
  fails=$((fails + 1))
}

# An unsupervised injected worker crash is a located exit-2 diagnostic...
expect_exit 2 "unsupervised pool crash" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --failpoints "pool.task=raise@nth:3"
expect_stderr_line_count "unsupervised pool crash"
grep -q "task 2 failed after 1 attempt(s)" "$TMP/err" || {
  echo "FAIL: unsupervised pool crash not located to the task" >&2
  fails=$((fails + 1))
}
# ...and --task-retries turns the same schedule into a clean recovery.
expect_exit 0 "supervised pool recovery" "$CLI" compile -m lenet5 -c S -b 4 --quick \
  --failpoints "pool.task=raise@nth:3" --task-retries 2

# --- serving runtime: stdio exchange, envelope statuses, chaos, drain ---
# One pipelined stdio session: a ping, a quick compile, a malformed
# request, and a compile whose zero deadline has always already expired
# by the time it is dequeued.  EOF drains; every request is answered.
{
  printf 'request ping-1 ping\nend\n'
  printf 'request c-1 compile\nmodel lenet5\nchip S\nbatch 4\nseed 3\nend\n'
  printf 'request bad-1 frobnicate\nend\n'
  printf 'request t-1 compile\nmodel lenet5\nchip S\nbatch 4\ndeadline 0\nend\n'
} | "$CLI" serve >"$TMP/serve.out" 2>"$TMP/serve.err"
got=$?
if [ "$got" -ne 0 ]; then
  echo "FAIL: serve stdio session: expected exit 0, got $got" >&2
  sed 's/^/  stderr: /' "$TMP/serve.err" >&2
  fails=$((fails + 1))
fi
for want in "response ping-1 ok" "response c-1 ok" "response bad-1 error" \
  "response t-1 timeout"; do
  grep -q "^$want\$" "$TMP/serve.out" || {
    echo "FAIL: serve stdio session missing \"$want\"" >&2
    fails=$((fails + 1))
  }
done
if [ "$(grep -c '^response ' "$TMP/serve.out")" -ne 4 ]; then
  echo "FAIL: serve stdio session did not answer every request exactly once" >&2
  fails=$((fails + 1))
fi

# The same compile under a seeded failpoint schedule: the first
# execution attempt raises, the bounded retry absorbs it, and the
# metrics flush proves a retry actually happened.
{
  printf 'request ping-1 ping\nend\n'
  printf 'request c-1 compile\nmodel lenet5\nchip S\nbatch 4\nseed 3\nend\n'
} | "$CLI" serve --failpoints "serve.request=raise@nth:1" --metrics \
  >"$TMP/serve_chaos.out" 2>"$TMP/serve_chaos.err"
got=$?
if [ "$got" -ne 0 ]; then
  echo "FAIL: serve chaos session: expected exit 0, got $got" >&2
  sed 's/^/  stderr: /' "$TMP/serve_chaos.err" >&2
  fails=$((fails + 1))
fi
grep -q "^response c-1 ok\$" "$TMP/serve_chaos.out" || {
  echo "FAIL: serve chaos session: injected transient not retried to ok" >&2
  fails=$((fails + 1))
}
if ! grep "serve.retries" "$TMP/serve_chaos.out" | grep -q "[1-9]"; then
  echo "FAIL: serve chaos session reported zero serve.retries in --metrics" >&2
  fails=$((fails + 1))
fi

# A retry backs off in the queue, not in the loop.  With stdin held
# open, c-1's first attempt raises and waits out a 2 s backoff while the
# healthy c-2 is answered at once; c-1 then comes back ok after the wait.
{
  printf 'request c-1 infer\nmodel lenet5\nbatch 1\nend\n'
  printf 'request c-2 infer\nmodel lenet5\nbatch 1\nend\n'
  sleep 2.5
} | "$CLI" serve --retry-backoff 2 --failpoints "serve.request=raise@nth:1" \
  >"$TMP/serve_defer.out" 2>"$TMP/serve_defer.err"
got=$?
if [ "$got" -ne 0 ]; then
  echo "FAIL: serve deferral session: expected exit 0, got $got" >&2
  sed 's/^/  stderr: /' "$TMP/serve_defer.err" >&2
  fails=$((fails + 1))
fi
# "<id> <elapsed>" per response, in answer order.
order=$(awk '/^response /{id=$2} /^elapsed /{print id, $2}' "$TMP/serve_defer.out")
if ! echo "$order" | awk 'NR==1 && $1=="c-2" && $2<1 {a=1} NR==2 && $1=="c-1" && $2>=2 {b=1} END {exit !(a && b && NR==2)}'; then
  echo "FAIL: serve deferral: want c-2 (< 1 s) before c-1 (>= 2 s backoff), got:" >&2
  echo "$order" | sed 's/^/  /' >&2
  fails=$((fails + 1))
fi
grep -q "^response c-1 ok\$" "$TMP/serve_defer.out" || {
  echo "FAIL: serve deferral: c-1 not retried to ok" >&2
  fails=$((fails + 1))
}

# SIGTERM drains: the in-flight session is answered, the daemon exits 0.
mkfifo "$TMP/serve.fifo"
"$CLI" serve <"$TMP/serve.fifo" >"$TMP/drain.out" 2>"$TMP/drain.err" &
serve_pid=$!
exec 9>"$TMP/serve.fifo"
printf 'request d-1 ping\nend\n' >&9
answered=0
for _ in $(seq 1 100); do
  if grep -q "^response d-1 ok\$" "$TMP/drain.out" 2>/dev/null; then
    answered=1
    break
  fi
  sleep 0.05
done
if [ "$answered" -ne 1 ]; then
  echo "FAIL: serve drain: no response before SIGTERM" >&2
  fails=$((fails + 1))
fi
kill -TERM "$serve_pid"
exec 9>&-
wait "$serve_pid"
got=$?
if [ "$got" -ne 0 ]; then
  echo "FAIL: serve SIGTERM drain: expected exit 0, got $got" >&2
  sed 's/^/  stderr: /' "$TMP/drain.err" >&2
  fails=$((fails + 1))
fi
grep -q "drained" "$TMP/drain.err" || {
  echo "FAIL: serve drain did not report the drained response count" >&2
  fails=$((fails + 1))
}

# The self-check drill exercises the whole chaos stack end to end.
expect_exit 0 "doctor" "$CLI" doctor
grep -q "doctor: all .* checks passed" "$TMP/out" || {
  echo "FAIL: doctor did not report all checks passed" >&2
  fails=$((fails + 1))
}

# --- exit 3: internal invariant failure carries a bug-report hint ---
COMPASS_INTERNAL_FAULT=1 "$CLI" compile -m lenet5 --quick >"$TMP/out" 2>"$TMP/err"
got=$?
if [ "$got" -ne 3 ]; then
  echo "FAIL: internal fault: expected exit 3, got $got" >&2
  fails=$((fails + 1))
fi
grep -q "bug in compass" "$TMP/err" || {
  echo "FAIL: internal fault diagnostic lacks the bug-report hint" >&2
  fails=$((fails + 1))
}

if [ "$fails" -ne 0 ]; then
  echo "test_cli: $fails failure(s)" >&2
  exit 1
fi
echo "test_cli: all checks passed"
