GO ?= go

.PHONY: all build test race vet fmt lint check clean benchmod crashcheck overloadcheck replcheck fuzzsmoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails on any file gofmt would rewrite, analyzer fixtures included —
# the same check as CI's gofmt step.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

bin/repolint: $(shell find cmd/repolint tools/analyzers -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o $@ ./cmd/repolint

# lint runs the repo's three invariant analyzers (bannedcall, lockorder,
# errwrap) over every package via the go vet driver. Copied locks are
# go vet's copylocks check, which the vet target runs.
lint: bin/repolint
	$(GO) vet -vettool=$(CURDIR)/bin/repolint ./...

# crashcheck runs the seeded crash-injection harness under the race
# detector: every seed tears the in-flight WAL record, or damages the
# newest checkpoint, at a random byte offset and recovery must reproduce
# the acknowledged store exactly; and, for the leader's checkpoint family
# and the follower's alike (internal/wal/journal_test.go), a checkpoint
# never covers un-synced log, zero fill behind the last synced record is
# cut off like a torn one, a fallback keeps the checkpoint that loaded and
# no usable checkpoint refuses the boot; plus the boot rule (a boot that
# loaded a checkpoint writes none) and the write path's (WritePath: a
# refused write leaves nothing in the store or the log, nothing served
# skips the log, and a mutation is visible whole or not at all).
crashcheck:
	$(GO) test -race -count=1 -run 'Crash|WALEquivalent|Degraded|CheckpointRetention|BootDoesNotCheckpoint|WritePath' ./internal/wal/ ./internal/registry/ ./internal/repl/

# fuzzsmoke runs every native fuzz target for ten seconds, found by grepping
# the test files for `func Fuzz`, so a new target needs no edit here: the
# decoders of bytes read from disk or the network must not panic,
# over-allocate or half-apply, and every hand-written fast path must agree
# with the standard-library code it stands in for.
# Minimisation is capped at a second: Load decodes on several goroutines, so
# coverage varies with scheduling, and at the default minute the engine
# spends most of the ten seconds shrinking inputs that found nothing new.
fuzzsmoke:
	@set -e; grep -rH --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' cmd internal tools | \
	while IFS=: read -r file fn; do \
		target=$${fn#func }; \
		echo "== ./$$(dirname $$file) $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 10s -fuzzminimizetime 1s ./$$(dirname $$file); \
	done

# overloadcheck exercises the overload-resilience edge under the race
# detector: the admission controller's decision core, the shedding ×
# degraded-mode composition tests, the live-collector HTTP burst, the
# seeded flash-crowd experiment (goodput, brownout ladder, replay), and a
# tier transition mid-flight never validating a cached answer.
overloadcheck:
	$(GO) test -race -count=1 -run 'Admit|Queue|AIMD|Brownout|Deadline|Wrap|Budget|Overload|DegradedStatic|FlashCrowd' \
		./internal/admit/ ./internal/registry/ ./internal/lbexp/ ./internal/respcache/

# replcheck runs the leader/follower replication suite under the race
# detector: the seeded WAL reader-vs-prune harness, cold-follower
# byte-identical convergence, resume-from-durable-position, leader
# restart mid-stream, 410 re-bootstrap, the seeded partition/lag
# harness, write redirects, federated discovery over the pair, and every
# cause of a cached answer's invalidation on a leader and a follower.
replcheck:
	$(GO) test -race -count=1 -run 'Repl' \
		./internal/repl/ ./internal/wal/ ./internal/registry/ ./internal/federation/ ./internal/respcache/

# benchmod vets and tests the nested benchmark module against this tree.
# `go test ./...` does not enter bench/, so without this an API break
# against it shows up only when the benchmark itself is run.
benchmod:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# check is what a change must pass before review. `go test ./...` includes
# the allocation budgets (TestDiscoveryAllocBudgets, which names the
# allocating lines of a row over budget), the goroutine-leak cases
# (leakcheck) and the exact-value checks of /registry/metrics
# (internal/registry's HTTP tests).
check: build test vet fmt lint benchmod

clean:
	rm -rf bin
