// Package obs is the registry's observability layer: Prometheus-style
// text exposition of the metrics the collector, constraint cache, and
// balancer already maintain (expo.go), balance-quality and SLO rollups
// (balance.go, slo.go), structured logging construction helpers over
// log/slog (log.go), and a minimal exposition-format parser used by tests
// and the CI scrape smoke (parse.go). The per-request event — including
// the sampled trace of a discovery — is the flight record of
// internal/flight, not a type of this package.
//
// The thesis's argument rests on registry-side state the operator cannot
// otherwise see — the NodeState table, breaker verdicts, cache behaviour —
// so this package gives every piece of that state an external surface
// without adding any dependency beyond the standard library, and without
// touching the discovery fast path's allocation budget: metric values are
// read only at scrape time.
package obs
