GO ?= go

# Packages with concurrency-sensitive code (crawl/retry plus the fused
# measurement pipeline and the lock-free instrument registry); these
# run under the race detector in `make check`.
RACE_PKGS := ./internal/ctlog/... ./internal/monitor/... ./internal/faultinject/... \
	./internal/pipeline/... ./internal/corpus/... ./internal/lint/... \
	./internal/obs/... ./internal/serve/... ./internal/fleet/... \
	./internal/index/...

# End-to-end corpus size for `make bench` (34800 ≈ 1:1000 of the
# paper's dataset). Lower it for quick local runs:
#   make bench BENCH_E2E_SIZE=3480
BENCH_E2E_SIZE ?= 34800
# Free-form note recorded in BENCH_7.json (hardware caveats etc.).
BENCH_NOTE ?=
# Interleaved bench rounds: the whole suite runs BENCH_ROUNDS times
# (round-robin, not back-to-back -count repeats) so benchjson's medians
# and min/max spread reflect cross-round noise, not warm-cache luck.
BENCH_ROUNDS ?= 3

# Address the smoke-metrics crawl serves its /metrics endpoint on.
SMOKE_METRICS_ADDR ?= 127.0.0.1:19321

.PHONY: build vet perfbench-vet test race fuzz check bench profile allocguard obs-lint smoke-metrics soak-fleet soak-kill
build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench-vet type-checks the nested perfbench module, which the root
# `go build ./...` does not reach, so an internal API change that
# breaks the benchmark harness fails here. vet rather than build: a
# build of its single main package would drop a binary into the tree.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Seconds of coverage-guided fuzzing per target in `make check`: the
# Merkle proof verifiers and the LSM-vs-B+tree index differential —
# enough to shake out fold and merge regressions without stalling the
# suite. Raise for a dedicated fuzz session.
FUZZ_TIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzProofVerification' -fuzztime $(FUZZ_TIME) ./internal/ctlog
	$(GO) test -run '^$$' -fuzz 'FuzzIndexLookup' -fuzztime $(FUZZ_TIME) ./internal/index

check: build vet perfbench-vet test race fuzz allocguard obs-lint smoke-metrics soak-fleet soak-kill

# bench runs the end-to-end pipeline benchmarks (1 iteration each at
# paper scale), the streaming slot-recycling variant, the per-stage
# generate/lint benchmarks, the registry allocation guard, the
# fleet-crawl throughput benchmark and its group-commit variants
# (audited with STH anchors, and flushing a real LSM per commit, each
# at a 100 ms and a 1 s commit interval: entries/s and commits/op),
# the certificate-index T1–T5
# query grid (point / prefix / range / ingest / mixed, LSM vs B+tree)
# plus the LSM 8-segment compaction,
# the ctlog T6 write grid (baseline parse+SCT / pre-parsed SCT /
# Merkle-batched seal) and the ctlog proof grid (get-sth / consistency
# / inclusion at 2^10, 2^15 and 2^20 leaves) — BENCH_ROUNDS
# interleaved times — then records medians, min/max spread, derived
# per-cert allocation costs, the obs histogram snapshots, and a delta
# table against the previous BENCH_*.json in BENCH_7.json.
bench:
	{ for r in $$(seq 1 $(BENCH_ROUNDS)); do \
	    BENCH_E2E_SIZE=$(BENCH_E2E_SIZE) $(GO) test -run '^$$' \
		-bench 'MeasureCorpusE2E|MeasureCorpusStreamE2E|PipelineGenerateOnly|PipelineLintOnly' \
		-benchtime 1x -benchmem . ; \
	    $(GO) test -run '^$$' -bench 'RegistryRun' -benchmem ./internal/lint ; \
	    $(GO) test -run '^$$' -bench 'FleetCrawl(Commit)?$$' -benchtime 5x ./internal/fleet ; \
	    $(GO) test -run '^$$' -bench 'Index(Point|Prefix|Range|Ingest|Mixed|Compact)' \
		-benchmem ./internal/index ; \
	    $(GO) test -run '^$$' -bench 'Write(Baseline|PerEntry|Batched)|LogProve(STH|Consistency|Inclusion)' \
		-benchmem ./internal/ctlog ; \
	  done ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_7.json -note "$(BENCH_NOTE)"

# profile captures CPU + heap (alloc_space) pprof profiles from a live
# paper-scale ctscan run via the internal/obs pprof handler; artifacts
# land in profiles/ (see profiles/README.md).
profile:
	./scripts/profile.sh

# allocguard enforces the per-cert allocation budgets in
# scripts/alloc_budgets.txt against the committed BENCH_7.json — a
# fast read-only check that fails `make check` when a recorded budget
# regresses.
allocguard:
	./scripts/allocguard.sh

# obs-lint fails when the metric families registered in code and the
# metrics reference table in DESIGN.md drift apart — in either
# direction (undocumented metric, or stale doc row).
obs-lint:
	./scripts/obs_lint.sh

# smoke-metrics boots a faulted ctmonitor crawl (a fleet of one flaky
# log) with a live metrics endpoint, scrapes /metrics, and asserts the
# crawl and client instruments are present with non-zero values.
smoke-metrics:
	@$(GO) build -o /tmp/ctmonitor-smoke ./cmd/ctmonitor
	@rm -f /tmp/ctmonitor-smoke.metrics; \
	/tmp/ctmonitor-smoke -logs solo:flaky -entries 120 -batch 16 \
		-metrics-addr $(SMOKE_METRICS_ADDR) -linger 30s \
		>/dev/null 2>/tmp/ctmonitor-smoke.log & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=0; \
	for i in $$(seq 1 100); do \
		if curl -sf http://$(SMOKE_METRICS_ADDR)/metrics -o /tmp/ctmonitor-smoke.metrics 2>/dev/null \
			&& grep -q '^fleet_entries_unique_total [1-9]' /tmp/ctmonitor-smoke.metrics; then \
			ok=1; break; \
		fi; \
		sleep 0.2; \
	done; \
	[ $$ok -eq 1 ] || { echo "smoke-metrics: FAIL: no scrape with synced entries (see /tmp/ctmonitor-smoke.log)"; exit 1; }; \
	for pat in 'ctlog_requests_total{outcome="retryable"} [1-9]' \
		'ctlog_requests_total{outcome="ok"} [1-9]' \
		'ctlog_request_seconds_bucket' \
		'ctlog_server_requests_total' \
		'fleet_log_checkpoint_age_seconds{log="solo"}'; do \
		grep -q "$$pat" /tmp/ctmonitor-smoke.metrics || { \
			echo "smoke-metrics: FAIL: missing $$pat"; exit 1; }; \
	done; \
	echo "smoke-metrics: OK ($$(wc -l < /tmp/ctmonitor-smoke.metrics) exposition lines)"

# soak-fleet drives the multi-log crash/recovery scenario: four logs
# with disjoint fault profiles (hang, 25% 5xx, poisoned entries,
# clean) crawled by the fleet coordinator, SIGTERMed mid-flight, then
# restarted; soakcheck -fleet asserts per-log checkpoint resume with
# zero refetch, exact cross-log dedup accounting, poisoned-entry
# quarantine without stalling the healthy logs, shed requests on the
# rate-limited logs, and a fleet that degraded without dying.
soak-fleet:
	./scripts/soak_fleet.sh

# soak-kill SIGKILLs a throttled two-log audited fleet crawl at several
# seeded random moments, restarting it after each kill, lets the last
# run finish, and requires its index to hold exactly the certificates
# of an uninterrupted reference crawl (distinct leaf hashes == unique
# entries): no checkpoint may be committed past an entry a kill can
# still lose.
soak-kill:
	./scripts/soak_kill.sh
