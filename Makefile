# Developer entry points.  CI runs the same targets; see .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race bench fmt vet lint profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Project-native static analysis (internal/analysis): the *Locked contract,
# //refrint:alloc-free pins, /metrics naming/registration, and atomic-field
# discipline.  Blocking in CI; run before sending a change.
lint:
	$(GO) build -o bin/refrint-lint ./cmd/refrint-lint
	$(GO) vet -vettool=$(CURDIR)/bin/refrint-lint ./...

# Run every Go micro-benchmark, with allocation counts.  End-to-end
# and per-layer numbers come from the layered benchmark instead:
#   bash layerbench/run.sh --workload sim-serial --seconds 12
# (see layerbench/README.md and BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Capture a CPU profile from a running server started with
# -debug-addr $(DEBUG_ADDR) and drop it under bin/ for go tool pprof:
#   refrint-serve -debug-addr localhost:6060 &
#   make profile
#   $(GO) tool pprof bin/cpu.pprof
DEBUG_ADDR ?= localhost:6060
PROFILE_SECONDS ?= 10
profile:
	mkdir -p bin
	curl -sf -o bin/cpu.pprof "http://$(DEBUG_ADDR)/debug/pprof/profile?seconds=$(PROFILE_SECONDS)"
	@echo "wrote bin/cpu.pprof ($(PROFILE_SECONDS)s CPU profile from $(DEBUG_ADDR))"
