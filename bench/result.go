package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the machine a result was measured on. compare
// refuses two results whose fingerprints differ instead of misreading a
// cross-host delta as a regression.
type fingerprint struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Kernel string `json:"kernel"`
}

func machineFingerprint() fingerprint {
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	return fingerprint{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NProc: runtime.NumCPU(), Go: runtime.Version(), Kernel: kernel}
}

// resultFile is what a run leaves in bench/out: the fingerprint, one
// entry per workload, and the claim, which this benchmark never makes.
type resultFile struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Runs        []*runResult `json:"runs"`
	Claim       *string      `json:"claim"`
}

func writeJSONFile(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encode %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: create %s: %w", filepath.Dir(path), err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return nil
}

func writeResultFile(out string, runs []*runResult, name string) error {
	return writeJSONFile(filepath.Join(out, name), resultFile{Fingerprint: machineFingerprint(), Runs: runs})
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read %s: %w", path, err)
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: decode %s: %w", path, err)
	}
	return &f, nil
}

// spread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), which is what the
// driver computes.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := medianFloat(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// worse reports by what share of base the value cur is worse, given the
// metric's direction; negative means better.
func worse(m metricDef, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if m.better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// byWorkload collects each end-to-end metric's values per workload.
func (f *resultFile) byWorkload() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for k, v := range r.EndToEnd {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out
}

// compareMain implements `bench compare a.json b.json`: per workload and
// metric, the change of b's median against a's, judged against the
// metric's bound: ok, regressed, or unresolved when either side's own
// spread is wider than the bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <baseline.json> <latest.json>")
		return 2
	}
	a, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if a.Fingerprint != b.Fingerprint {
		fmt.Fprintf(os.Stderr, "bench: refusing to compare results of different machines:\n  %+v\n  %+v\n", a.Fingerprint, b.Fingerprint)
		return 1
	}
	regressed := compareFiles(os.Stdout, a, b)
	if regressed {
		return 1
	}
	return 0
}

func compareFiles(w io.Writer, a, b *resultFile) (regressed bool) {
	av, bv := a.byWorkload(), b.byWorkload()
	for _, spec := range workloads {
		if av[spec.name] == nil || bv[spec.name] == nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n", spec.name)
		for _, m := range endToEnd {
			verdict, delta := judge(m, av[spec.name][m.name], bv[spec.name][m.name])
			if verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-24s %12.4f -> %12.4f %-4s %+7.1f%% (bound %.0f%%)  %s\n", m.name,
				medianFloat(av[spec.name][m.name]), medianFloat(bv[spec.name][m.name]), m.unit, delta*100, m.bound*100, verdict)
		}
	}
	return regressed
}

// judge compares two sets of runs of one metric.
func judge(m metricDef, base, cur []float64) (verdict string, delta float64) {
	delta = worse(m, medianFloat(base), medianFloat(cur))
	switch {
	case spread(base) > m.bound || spread(cur) > m.bound:
		return "unresolved", delta
	case delta > m.bound:
		return "regressed", delta
	default:
		return "ok", delta
	}
}

// noiseEntry is one metric's observed values over the calibration suites.
type noiseEntry struct {
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"` // (q3 − q1) / median
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
}

type noiseFile struct {
	Fingerprint fingerprint                       `json:"fingerprint"`
	Seconds     int                               `json:"seconds"`
	Seeds       []int64                           `json:"seeds"`
	Workloads   map[string]map[string]*noiseEntry `json:"workloads"`
	Claim       *string                           `json:"claim"`
}

// calibrationSeeds are the suites -calibrate runs: the same commit twice
// with seed 1 and once with seed 2.
var calibrationSeeds = []int64{1, 1, 2}

// calibrate runs the whole suite once per calibration seed, writes each
// metric's min/median/max into bench/noise.json and regenerates
// BENCHMARK.json from the tables in spec.go. It fails when an end-to-end
// metric's range over the suites exceeds its bound: such a metric must be
// steadied or moved to the per-layer list, not given a wider bound.
func (h *harness) calibrate(seconds int) int {
	noise := noiseFile{Fingerprint: machineFingerprint(), Seconds: seconds, Seeds: calibrationSeeds, Workloads: map[string]map[string]*noiseEntry{}}
	for _, seed := range calibrationSeeds {
		for _, spec := range workloads {
			r, err := h.runWorkload(spec, seed, seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
				return 1
			}
			printResult(os.Stdout, r, false)
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s: run not correct: %v\n", spec.name, r.Invalid)
				return 1
			}
			if noise.Workloads[spec.name] == nil {
				noise.Workloads[spec.name] = map[string]*noiseEntry{}
			}
			for _, m := range endToEnd {
				e := noise.Workloads[spec.name][m.name]
				if e == nil {
					e = &noiseEntry{Bound: m.bound}
					noise.Workloads[spec.name][m.name] = e
				}
				e.Values = append(e.Values, r.EndToEnd[m.name])
			}
		}
	}
	code := 0
	for _, spec := range workloads {
		for _, m := range endToEnd {
			e := noise.Workloads[spec.name][m.name]
			s := append([]float64(nil), e.Values...)
			sort.Float64s(s)
			e.Min, e.Median, e.Max = s[0], medianFloat(s), s[len(s)-1]
			e.Spread = spread(s)
			if rng := ratio(e.Max-e.Min, e.Median); rng > m.bound {
				fmt.Fprintf(os.Stderr, "bench: %s %s ranges over %.1f%% of its median, bound %.0f%%\n", spec.name, m.name, rng*100, m.bound*100)
				code = 1
			}
		}
	}
	if err := writeJSONFile(filepath.Join(h.root, "bench", "noise.json"), noise); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if specMain() != 0 {
		return 1
	}
	return code
}

// specMain writes BENCHMARK.json at the repository root from spec.go.
func specMain() int {
	root, err := findRoot()
	if err == nil {
		err = writeJSONFile(filepath.Join(root, "BENCHMARK.json"), benchmarkJSON())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// benchmarkJSON renders the tables of spec.go in the driver's format.
func benchmarkJSON() interface{} {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	return doc
}
