// Package repro is a from-scratch Go reproduction of "A Load Balancing
// Scheme for ebXML Registries" (Sahasrabudhe, SDSU, 2011): a complete
// ebXML registry/repository with the thesis's NodeStatus-driven,
// constraint-based service-binding load balancer, plus the simulated host
// substrate, MTC workload driver, and experiment harness that regenerate
// the evaluation.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// experiment index, and the examples/ directory for runnable entry points.
// The public surface lives under internal/ packages assembled by
// internal/registry; the benchmarks in bench_test.go regenerate every
// experiment table, and TestDiscoveryAllocBudgets there holds the discovery
// ones to their allocation budgets.
package repro
