#!/usr/bin/env bash
# Repo verification: build, vet, full tests, then the race detector over
# every package (the parallel layer in internal/par and its call sites are
# only trustworthy under -race), and finally a focused fault-injection
# smoke pass over the hardened serving layer. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

echo "== fault-injection smoke (-race) =="
go test -race -count=1 -run 'Fault|Panic|Timeout|Drain|Inject|Ctx|Context|Cancel|Deadline' \
  ./internal/faultinject ./internal/isomorph ./internal/par ./internal/gindex ./cmd/vqiserve

echo "== vqibench (separate module, built against this tree) =="
(cd vqibench && go vet ./... && go test ./...)

echo "== fuzz-seed regression (checked-in corpora) =="
go test -count=1 -run 'Fuzz' ./internal/gio ./cmd/vqiserve

echo "== benchmark smoke (K1 kernel suite) =="
go run ./cmd/benchvqi -exp K1

echo "== benchmark smoke (S1 sharded-index suite) =="
go run ./cmd/benchvqi -exp S1

echo "== benchmark smoke (O1 observability-overhead suite) =="
go run ./cmd/benchvqi -exp O1

echo "== benchmark smoke (A1 approximate-similarity suite) =="
go run ./cmd/benchvqi -exp A1
grep -q '"rebuild_only_touched": true' BENCH_ann.json \
  || { echo "A1: batch update rebuilt more than the touched shards"; exit 1; }

echo "== metrics endpoint smoke (vqiserve -pprof, live scrape) =="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"; [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true' EXIT
go run ./cmd/datagen -kind chemical -n 20 -out "$tmpdir/corpus.lg"
go run ./cmd/vqibuild -data "$tmpdir/corpus.lg" -out "$tmpdir/vqi.json" -count 3 -metrics
go build -o "$tmpdir/vqiserve" ./cmd/vqiserve
"$tmpdir/vqiserve" -spec "$tmpdir/vqi.json" -data "$tmpdir/corpus.lg" \
  -addr 127.0.0.1:0 -pprof -ann >"$tmpdir/serve.log" 2>&1 &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$tmpdir/serve.log" | head -1)"
  [[ -n "$addr" ]] && break
  sleep 0.1
done
[[ -n "$addr" ]] || { echo "vqiserve never reported its address"; cat "$tmpdir/serve.log"; exit 1; }
curl -fsS "http://$addr/metrics" | grep 'vqiserve_requests_total' >/dev/null \
  || { echo "/metrics JSON missing request counters"; exit 1; }
curl -fsS "http://$addr/metrics?format=prometheus" | grep '# TYPE vqiserve_request_seconds histogram' >/dev/null \
  || { echo "/metrics prometheus output missing histogram family"; exit 1; }
curl -fsS "http://$addr/debug/vars" | grep 'vqiserve_inflight_requests' >/dev/null \
  || { echo "/debug/vars missing inflight gauge"; exit 1; }
curl -fsS "http://$addr/debug/pprof/cmdline" >/dev/null \
  || { echo "-pprof did not mount /debug/pprof/"; exit 1; }
ct="$(curl -fsS -o /dev/null -w '%{content_type}' "http://$addr/metrics")"
[[ "$ct" == application/json* ]] \
  || { echo "/metrics JSON content-type: $ct"; exit 1; }
ct="$(curl -fsS -o /dev/null -w '%{content_type}' "http://$addr/metrics?format=prometheus")"
[[ "$ct" == "text/plain; version=0.0.4"* ]] \
  || { echo "/metrics prometheus content-type: $ct"; exit 1; }
code="$(curl -s -o "$tmpdir/badformat.json" -w '%{http_code}' "http://$addr/metrics?format=bogus")"
[[ "$code" == 400 ]] && grep -q '"bad_format"' "$tmpdir/badformat.json" \
  || { echo "/metrics?format=bogus: got $code $(cat "$tmpdir/badformat.json")"; exit 1; }
echo "metrics endpoint: OK"

echo "== similarity endpoint smoke (live /api/similar) =="
curl -fsS "http://$addr/api/similar" -d '{"graph":"mol3","k":3}' \
  | grep '"mol3"' >/dev/null \
  || { echo "/api/similar did not retrieve the query graph"; exit 1; }
curl -fsS "http://$addr/api/similar" \
  -d '{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}],"k":3,"mode":"exact","verify":true}' \
  | grep '"matches"' >/dev/null \
  || { echo "/api/similar inline exact+verify query failed"; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/api/similar" -d '{"graph":"mol3","mode":"bogus"}')"
[[ "$code" == 400 ]] \
  || { echo "/api/similar bad mode: got $code, want 400"; exit 1; }
echo "similarity endpoint: OK"

echo "== query planner smoke (live /api/query?plan= trace and validation) =="
# A 9-ring with a chord: ?plan=auto must report the one remaining
# strategy and a plan.compile stage; the removed forced strategies are
# unknown modes now.
ring='{"nodes":["C","C","C","C","C","C","C","C","C"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"},{"u":2,"v":3,"label":"s"},{"u":3,"v":4,"label":"s"},{"u":4,"v":5,"label":"s"},{"u":5,"v":6,"label":"s"},{"u":6,"v":7,"label":"s"},{"u":7,"v":8,"label":"s"},{"u":8,"v":0,"label":"s"},{"u":0,"v":4,"label":"s"}]}'
plan_resp="$(curl -fsS "http://$addr/api/query?plan=auto" -d "$ring")"
grep -q '"strategy":"monolithic"' <<<"$plan_resp" \
  || { echo "?plan=auto did not report the monolithic strategy: $plan_resp"; exit 1; }
grep -q '"plan.compile"' <<<"$plan_resp" \
  || { echo "?plan=auto trace missing the plan.compile stage: $plan_resp"; exit 1; }
code="$(curl -s -o "$tmpdir/badplan.json" -w '%{http_code}' "http://$addr/api/query?plan=decompose" -d "$ring")"
[[ "$code" == 400 ]] && grep -q '"bad_plan"' "$tmpdir/badplan.json" \
  || { echo "?plan=decompose: got $code $(cat "$tmpdir/badplan.json"), want 400 bad_plan"; exit 1; }
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "query planner: OK"

echo "== benchmark smoke (D1 durability suite) =="
go run ./cmd/benchvqi -exp D1
grep -q '"compacted snapshot"' BENCH_store.json \
  || { echo "D1: BENCH_store.json missing the cold-boot variants"; exit 1; }

echo "== crash-recovery smoke (kill -9 mid-stream, restart, re-query) =="
datadir="$tmpdir/data"
start_durable() {
  "$tmpdir/vqiserve" -spec "$tmpdir/vqi.json" -data "$tmpdir/corpus.lg" \
    -data-dir "$datadir" -addr 127.0.0.1:0 >"$1" 2>&1 &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$1" | head -1)"
    [[ -n "$addr" ]] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "durable vqiserve never became ready"; cat "$1"; exit 1
}
start_durable "$tmpdir/durable1.log"
update_resp="$(curl -fsS "http://$addr/admin/update" \
  -d '{"add":[{"name":"crash-added","nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}]}')"
grep -q '"seq":1' <<<"$update_resp" \
  || { echo "durable update not acknowledged at seq 1: $update_resp"; exit 1; }
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
start_durable "$tmpdir/durable2.log"
grep -q 'replaying 1 WAL batches' "$tmpdir/durable2.log" \
  || { echo "restart did not replay the acknowledged WAL batch"; cat "$tmpdir/durable2.log"; exit 1; }
curl -fsS "http://$addr/api/query" \
  -d '{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}' \
  | grep -q '"crash-added"' \
  || { echo "restart lost the acknowledged update"; exit 1; }
echo "crash recovery: OK"

echo "== SIGINT graceful drain =="
kill -INT "$server_pid"
rc=0; wait "$server_pid" || rc=$?
[[ "$rc" == 0 ]] \
  || { echo "SIGINT exit code $rc, want 0"; cat "$tmpdir/durable2.log"; exit 1; }
grep -q 'drained cleanly' "$tmpdir/durable2.log" \
  || { echo "SIGINT did not drain cleanly"; cat "$tmpdir/durable2.log"; exit 1; }
server_pid=""
echo "SIGINT drain: OK"

echo "== benchmark smoke (M1 mmap capacity suite) =="
go run ./cmd/benchvqi -exp M1
grep -q '"contract_violations": 0' BENCH_mmap.json \
  || { echo "M1: mmap boot contract violated (sections not restored cleanly)"; exit 1; }

echo "== mmap crash-recovery smoke (kill -9 mid-stream, mmap restart, compact, section-restored boot) =="
mmapdir="$tmpdir/mmapdata"
start_mmap() {
  "$tmpdir/vqiserve" -spec "$tmpdir/vqi.json" -data "$tmpdir/corpus.lg" \
    -data-dir "$mmapdir" -mmap -addr 127.0.0.1:0 >"$1" 2>&1 &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$1" | head -1)"
    [[ -n "$addr" ]] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "mmap vqiserve never became ready"; cat "$1"; exit 1
}
start_mmap "$tmpdir/mmap1.log"
update_resp="$(curl -fsS "http://$addr/admin/update" \
  -d '{"add":[{"name":"mmap-added","nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}]}')"
grep -q '"seq":1' <<<"$update_resp" \
  || { echo "mmap durable update not acknowledged at seq 1: $update_resp"; exit 1; }
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
start_mmap "$tmpdir/mmap2.log"
grep -q 'mapped lazy' "$tmpdir/mmap2.log" \
  || { echo "mmap restart did not use the mapped boot path"; cat "$tmpdir/mmap2.log"; exit 1; }
grep -q 'replaying 1 WAL batches' "$tmpdir/mmap2.log" \
  || { echo "mmap restart did not replay the acknowledged WAL batch"; cat "$tmpdir/mmap2.log"; exit 1; }
curl -fsS "http://$addr/api/query" \
  -d '{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}' \
  | grep -q '"mmap-added"' \
  || { echo "mmap restart lost the acknowledged update"; exit 1; }
kill -INT "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""
go run ./cmd/vqimaintain -compact -data-dir "$mmapdir" -mmap
start_mmap "$tmpdir/mmap3.log"
grep -Eq 'restored [0-9]+/[0-9]+ shards from persisted index sections \(0 rebuilt\)' "$tmpdir/mmap3.log" \
  || { echo "compacted mmap boot did not restore every shard from sections"; cat "$tmpdir/mmap3.log"; exit 1; }
curl -fsS "http://$addr/api/query" \
  -d '{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}' \
  | grep -q '"mmap-added"' \
  || { echo "section-restored boot lost the acknowledged update"; exit 1; }
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "mmap crash recovery: OK"

echo "verify: OK"
