# Make targets mirror the CI gates exactly: a clean `make check` locally
# means the blocking CI steps pass.

STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: build test race lint lint-offline gofmt nocvet staticcheck govulncheck check

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# gofmt fails when any Go source file is not gofmt-formatted; the
# benchmark's build directory is skipped.
gofmt:
	@files="$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*'))"; \
	if [ -n "$$files" ]; then echo "gofmt -l flags:"; echo "$$files"; exit 1; fi

# nocvet is the project-specific gate: determinism (detmap, detsource),
# hot-path allocation (hotpath), cancellation (ctxflow) and lock
# discipline (mutexhold). See internal/analysis/doc.go.
nocvet:
	go run ./cmd/nocvet ./...
	go run ./cmd/nocvet -tests ./...

# staticcheck is pinned and configured by staticcheck.conf; `go run`
# fetches the pinned version on first use (needs network once).
staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# govulncheck is report-only in CI: findings print but do not gate.
govulncheck:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./... || true

# lint is the blocking CI lint step, verbatim.
lint: gofmt nocvet
	go vet ./...
	$(MAKE) staticcheck

# lint-offline is lint minus the tools that need a module download —
# everything in it runs from a cold cache with no network.
lint-offline: gofmt nocvet
	go vet ./...

check: build lint test race
