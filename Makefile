# Local targets mirror .github/workflows/ci.yml exactly: `make ci` runs
# the same checks the workflow does, in the same order.

GO ?= go
STATICCHECK_VERSION ?= 2025.1

# BENCH_PKGS are the packages whose microbenchmarks the snapshot holds;
# BENCH_SNAPSHOT is the committed snapshot bench-json writes and
# bench-compare gates against.
BENCH_PKGS = ./internal/core ./internal/cache ./internal/iosched ./internal/trace ./internal/fleet ./internal/workload ./internal/vfs ./internal/experiments ./internal/apps/wcapp ./internal/apps/grepapp ./internal/apps/fitsapp ./internal/fits
BENCH_SNAPSHOT = BENCH_48.json

# A literal comma, for use inside $(call ...) arguments.
comma := ,

.PHONY: build vet fmt staticcheck lint lint-debt test race fuzz-smoke bench bench-smoke bench-json bench-compare scale-smoke determinism faults-smoke trace-smoke fleet-smoke paper-check perf-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (like CI) if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck runs pinned via the module cache; no checked-in tool
# dependency. Needs network on the first run to fetch the tool.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# lint runs sledlint, the in-repo determinism linter (cmd/sledlint): its
# three syntactic rules (wallclock, mapiter, simtime) over the whole
# module; sledlint always loads test files, and wallclock reports there
# too. Any finding fails; the one way to accept one is
# //sledlint:allow <rule> -- <reason> at the site, and `make lint-debt`
# lists them all.
lint:
	$(GO) run ./cmd/sledlint ./...

# lint-debt inventories every //sledlint:allow directive with its
# reason — the full cost of the suppression mechanism, in one page. A
# directive for a rule the suite does not run fails `make lint`, so the
# inventory names only wallclock, mapiter and simtime.
lint-debt:
	$(GO) run ./cmd/sledlint -debt ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke fuzzes the page cache against its reference model
# (FuzzCacheOps in internal/cache), the trace codec's decoder (FuzzDecode
# in internal/trace: reject, or validate and round-trip), fimgbin's and
# fimhisto's pixel kernels against their oracles (FuzzPixelKernels in
# internal/apps/fitsapp), the FITS header parser (FuzzParseHeader in
# internal/fits: no panic, no overflowing geometry) and the I/O schedulers
# against their linear-scan oracles (FuzzSchedulers in internal/iosched)
# and wc's 64-byte classifier against its byte loop (FuzzCount in
# internal/apps/wcapp), each for a short, fixed time. The seeded corpora already run under `test`;
# this explores beyond them. Each input that widens coverage is minimised
# before fuzzing goes on, by default for up to a minute, which would spend
# the whole run on the first one.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzCacheOps -fuzztime=15s -fuzzminimizetime=1s ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=15s -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzPixelKernels -fuzztime=15s -fuzzminimizetime=1s ./internal/apps/fitsapp
	$(GO) test -run='^$$' -fuzz=FuzzParseHeader -fuzztime=15s -fuzzminimizetime=1s ./internal/fits
	$(GO) test -run='^$$' -fuzz=FuzzSchedulers -fuzztime=15s -fuzzminimizetime=1s ./internal/iosched
	$(GO) test -run='^$$' -fuzz=FuzzCount -fuzztime=15s -fuzzminimizetime=1s ./internal/apps/wcapp

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# bench-smoke runs every microbenchmark for a single iteration so CI
# catches benchmarks that panic or fail setup without paying for stable
# timings.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' $(BENCH_PKGS)

# bench-json regenerates $(BENCH_SNAPSHOT), the committed snapshot of the
# query/cache/iosched/trace/fleet/workload/vfs/arena/app-kernel microbenchmarks
# and the root figure benchmarks, as a JSON map of benchmark name to ns/op, B/op,
# allocs/op and ReportMetric figures. Timings vary by machine; the
# snapshot exists to pin the alloc counts (which bench-compare gates) and
# record the measured speedups at authoring time. Run it on a bench-suite
# change and commit the result. The other BENCH_*.json files are frozen
# earlier snapshots; leave them be.
bench-json:
	{ $(GO) test -bench=. -benchmem -run='^$$' $(BENCH_PKGS); \
	  $(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' .; } | $(GO) run ./cmd/benchjson > $(BENCH_SNAPSHOT)
	@echo "bench-json: wrote $(BENCH_SNAPSHOT)"

# bench-compare reruns the bench-json suite and gates it against the
# committed $(BENCH_SNAPSHOT) snapshot: every benchmark in the snapshot must
# still exist, and allocs/op may not grow more than 25%. Only alloc
# counts are gated — they are deterministic for these workloads, while
# ns/op on shared CI runners is noise.
bench-compare:
	{ $(GO) test -bench=. -benchmem -run='^$$' $(BENCH_PKGS); \
	  $(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' .; } | $(GO) run ./cmd/benchjson -compare $(BENCH_SNAPSHOT) -tolerance 0.25

# workers-diff is the one recipe behind determinism and the *-smoke
# targets: run sledsbench -scale quick with the flags in $(2) at -workers 1
# and -workers 4, fail on any stdout byte difference, and — when $(3) names
# a committed golden — fail unless the output equals it too. $(1) names the
# check; $(4) says what was proven. The outputs go to a fresh mktemp -d
# directory, named in the last line, so two checkouts can run at once.
define workers-diff
d=$$(mktemp -d -t sledsbench-$(1).XXXXXX) && \
$(GO) run ./cmd/sledsbench -scale quick $(2) -workers 1 > $$d/w1.txt && \
$(GO) run ./cmd/sledsbench -scale quick $(2) -workers 4 > $$d/w4.txt && \
diff $$d/w1.txt $$d/w4.txt$(if $(3), && diff $(3) $$d/w1.txt) && \
echo "$(4): byte-identical at 1 and 4 workers$(if $(3), and equal to $(3)) (outputs in $$d)"
endef

# scale-smoke proves the event-heap engine at full width: the escale
# experiment (up to 10,000 streams over 24 queued disks, fcfs and sstf)
# must complete at quick scale and print byte-identical figures at 1 and
# 4 workers, equal to the committed experiments_quick_escale.txt (generated
# at PR 12, before escale's files became content-free: the values must
# never depend on page content). escale is deliberately outside "all", so
# this is the only place it runs.
scale-smoke:
	$(call workers-diff,escale,-exp escale,experiments_quick_escale.txt,scale-smoke: 10$(comma)000-stream escale)

# determinism regenerates the quick-scale evaluation serially and with a
# 4-worker pool and fails on any stdout byte difference, guarding the
# per-point seed derivation and the index-ordered reduce; the contention
# experiments and fault injection are then repeated on their own, the
# faults leg with ehints so that prefetch's retries on the background
# timeline run too, and with etrace so that trace replay's page-ins and
# writes ride out faults under the engine's queues.
determinism:
	$(call workers-diff,all,,experiments_quick_scale.txt,deterministic: quick-scale output)
	$(call workers-diff,contend,-exp econtend$(comma)eloadsled,,deterministic: contention experiments)
	$(call workers-diff,faults,-exp efaults$(comma)ehints$(comma)etrace -runs 2 -faults heavy,,deterministic: fault injection)

# trace-smoke drives the trace subsystem end to end: sledstrace
# generates a trace, validates its own output, and the etrace experiment
# (every workload class × {fcfs,sstf,deadline} × SLED on/off) replays at
# quick scale with byte-identical figures at 1 and 4 workers, equal to the
# committed experiments_quick_etrace.txt (generated at PR 12, like the
# escale golden). etrace is deliberately outside "all" (like escale), so
# this is the only place it runs.
trace-smoke:
	d=$$(mktemp -d -t sledstrace-smoke.XXXXXX) && \
	$(GO) run ./cmd/sledstrace gen -class mixed -seed 7 -o $$d/smoke.sledtrace && \
	$(GO) run ./cmd/sledstrace validate $$d/smoke.sledtrace
	$(call workers-diff,etrace,-exp etrace,experiments_quick_etrace.txt,trace-smoke: etrace replay)

# fleet-smoke drives the fleet tier end to end: the efleet experiment
# (3 scenarios x {rr, sled, hedge} over a 4-replica fleet) must complete
# at quick scale and print byte-identical reports at 1 and 4 workers, equal
# to the committed experiments_quick_efleet.txt (generated at PR 13, before
# the experiment registry). efleet is deliberately outside "all" (like
# escale and etrace), so this is the only place it runs.
fleet-smoke:
	$(call workers-diff,efleet,-exp efleet,experiments_quick_efleet.txt,fleet-smoke: efleet)

# faults-smoke drives the fault-injection path end to end: the efaults
# experiment, ablation-zones (the one experiment that probes a device with
# lmbench after boot) and ehsm (a stager's own tape and disk accesses), at
# quick scale with the heavy profile stacked over every device of every
# machine. Every injected fault must be retried or surfaced as EIO — a
# panic anywhere on the fault path fails the target.
faults-smoke: vet
	$(GO) run ./cmd/sledsbench -scale quick -exp efaults,ablation-zones,ehsm -runs 2 -faults heavy > /dev/null
	@echo "faults-smoke: efaults, ablation-zones and ehsm completed with heavy injection on every device"

# paper-check regenerates the whole evaluation at paper scale (every
# experiment in "all", -workers 0 = one per core) and fails unless stdout
# equals the committed experiments_paper_scale.txt. It is the one check of
# what quick scale never reaches: files past the 16 MiB generated-page
# store, the 44 MB cache, 128 MB files and ehsm's stage at full size. About
# 3 min of wall time on 2 cores; the output goes to a fresh mktemp -d
# directory, named in the last line.
paper-check:
	d=$$(mktemp -d -t sledsbench-paper.XXXXXX) && \
	$(GO) run ./cmd/sledsbench -scale paper -workers 0 > $$d/paper.txt && \
	diff experiments_paper_scale.txt $$d/paper.txt && \
	echo "paper-check: paper scale equal to experiments_paper_scale.txt (output in $$d)"

# perf-smoke is the only target that compiles cmd/sledsperf: the
# benchmark is a nested module (its own go.mod), so `./...` in build,
# vet, test and lint never reaches it, yet it calls core, experiments and
# the other internal packages through their exported API. Vet, its unit
# tests, and one short pass of every workload keep an API change here
# from breaking the benchmark unseen.
perf-smoke:
	cd cmd/sledsperf && $(GO) vet . && $(GO) test . && $(GO) run . -smoke

ci: build vet fmt staticcheck lint test race fuzz-smoke bench-smoke bench-compare scale-smoke determinism faults-smoke trace-smoke fleet-smoke paper-check perf-smoke
