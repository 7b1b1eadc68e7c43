# Developer entry points. `make check` is the PR gate: it must pass before
# every commit (the race detector covers the parallel experiment harness).

GO ?= go

.PHONY: check fmt build vet lint test race bench bench-json figs-check serve-smoke profile clean

check: fmt build vet race

# Formatting gate. Only tracked files are checked, so untracked build trees
# (such as the benchmark's .bench_build/) are skipped.
fmt:
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo "fmt: no tracked Go files"; exit 1; }; \
	out=$$(gofmt -l $$files); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet. staticcheck and govulncheck are optional local
# tools (CI installs pinned versions); skip with a hint when absent so the
# target works on a bare toolchain.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# perfbench is a nested module, so ./... at the root skips it; build and vet
# it too, or a change that breaks the benchmark passes the gate. -o /dev/null
# keeps the build from leaving a perfbench binary in the tree.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./...

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick micro-benchmarks of the two hot paths (DES event loop, RCKK merge),
# from the scenario list in internal/benchsuite that nfvbench also runs.
bench:
	$(GO) test -run xxx -bench 'Scenarios/(Simulator|RCKK)/' -benchmem ./internal/benchsuite

# Regenerate the committed performance trajectory (ns/op, allocs/op per
# scenario). Compare against the previous results/BENCH.json before merging
# performance-sensitive changes.
bench-json:
	$(GO) run ./cmd/nfvbench -out results/BENCH.json

# Regenerate every figure CSV at the full config into a temporary directory
# and compare the files byte for byte with the committed results/*.csv
# (about 40 s on a 2-vCPU host). A change that moves any figure cell, or
# adds or drops a figure, fails here; a change meant to move the figures
# commits the regenerated files.
figs-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/nfvsim -fig all -csv "$$tmp" > /dev/null && \
	diff -r --exclude='*.json' "$$tmp" results && \
	echo "figs-check: every results/*.csv regenerates byte for byte"

# End-to-end smoke test of the serving daemon: boot nfvd on a random port,
# curl /healthz, run a tiny /v1/solve round-trip, and shut down gracefully.
serve-smoke:
	sh scripts/serve_smoke.sh

# Profile the Simulator/large-horizon* scenarios of internal/benchsuite and
# print the top CPU consumers. Leaves cpu.prof/mem.prof behind for
# `go tool pprof -http` flame graphs; see the profiling workflow in
# EXPERIMENTS.md.
profile:
	$(GO) run ./cmd/nfvbench -run Simulator/large-horizon -out /dev/null \
		-cpuprofile cpu.prof -memprofile mem.prof
	$(GO) tool pprof -top -nodecount 15 cpu.prof

clean:
	$(GO) clean ./...
