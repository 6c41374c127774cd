// Command bench is the repository's benchmark: it builds cmd/regserver,
// boots it as real child processes, serves the cluster's NodeStatus
// endpoints itself, populates the registry over SOAP, drives discovery and
// publish traffic over loopback from one process with two connections,
// checks every answer against a naive oracle of the thesis's filter, and
// prints each metric by name with its unit. See README.md.
//
// Usage (from the repository root):
//
//	go run -C bench . -workload rest_hot            one workload
//	go run -C bench . -workload all                 all four
//	go run -C bench . -workload all -trace 1        with the per-layer traced run
//	go run -C bench . -calibrate                    three suites, noise.json, bounds
//	go run -C bench . compare a.json b.json         delta vs bound per metric
//	go run -C bench . spec                          rewrite BENCHMARK.json from spec.go
//
// The benchmark driver calls it once per workload as
// <command> --workload <name> --seed <n> --seconds <s> --trace <0|1> and
// reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures when the caller does not say.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	if len(args) == 1 && args[0] == "spec" {
		return specMain()
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "rest_hot|mixed_cold|publish_follow|crash_recover|all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1 adds the in-process traced run and reports the per-layer metrics")
	calibrate := fs.Bool("calibrate", false, "run the suite three times, write noise.json and BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if n := runtime.NumCPU(); n < 2 {
		fmt.Fprintf(os.Stderr, "bench: needs at least 2 CPUs (the generator spins on one while the servers run on the other), have %d\n", n)
		return 1
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	var specs []workloadSpec
	if *workload == "all" {
		specs = workloads
	} else if w, ok := workloadByName(*workload); ok {
		specs = []workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Children are reaped and the temporary directory removed on every
	// exit path: normal return, failure, SIGINT and SIGTERM.
	defer h.close()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		h.close()
		os.Exit(130)
	}()

	buildDur, err := h.build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *calibrate {
		return h.calibrate(*seconds)
	}

	var results []*runResult
	code := 0
	for _, spec := range specs {
		r, err := h.runWorkload(spec, *seed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
			return 1
		}
		r.BuildS = buildDur.Seconds()
		printResult(os.Stdout, r, *trace != 0)
		if err := writeResultFile(h.out, []*runResult{r}, fmt.Sprintf("result-%s-seed%d.json", spec.name, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !r.Correct {
			code = 1
		}
		results = append(results, r)
	}
	if code != 0 {
		// A wrong run prints no result line: the driver must not read one.
		for _, r := range results {
			for _, why := range r.Invalid {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.Workload, why)
			}
		}
		return code
	}
	if len(results) == 1 {
		fmt.Println(contractLine(results[0], *trace != 0))
		return 0
	}
	if err := writeResultFile(h.out, results, fmt.Sprintf("result-all-seed%d.json", *seed)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(summaryLine(results))
	return 0
}

// setupRounds is how many times a cheap set-up is repeated so that
// setup_s is a median; a set-up slower than slowSetup (the cold
// population) is made once, or three of them would outlast the run.
const (
	setupRounds = 3
	slowSetup   = 2 * time.Second
)

// runWorkload sets spec up, measures it for seconds and tears it down.
func (h *harness) runWorkload(spec workloadSpec, seed int64, seconds int, trace bool) (*runResult, error) {
	wallStart := clk.Now()
	r := &runResult{
		Workload: spec.name, Seed: seed, Seconds: seconds,
		EndToEnd: map[string]float64{}, Extra: map[string]float64{}, Layers: map[string]float64{},
	}
	var e *env
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		if e != nil {
			e.teardown()
		}
		var d time.Duration
		var err error
		if e, d, err = h.setup(spec, seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if d > slowSetup {
			break
		}
	}
	defer e.teardown()
	r.EndToEnd["setup_s"] = medianFloat(setups)
	r.Extra["setup_rounds"] = float64(len(setups))

	var err error
	switch {
	case spec.rate > 0:
		err = e.runRead(r, seed, seconds)
	case spec.follower:
		err = e.runPublish(r, seed, seconds)
	default:
		err = e.runCrash(r, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	if trace {
		if err := e.traceExtras(r, seed, seconds); err != nil {
			return nil, err
		}
		e.teardown() // the traced run is in-process; give it the machine
		if err := h.tracedRun(spec, seed, r); err != nil {
			return nil, err
		}
	}
	if r.Layers["admit.tier_max"] > 0 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("brownout ladder climbed to tier %v", r.Layers["admit.tier_max"]))
	}
	r.Extra["fail_ratio"] = ratio(float64(r.Failed), float64(r.Attempted))
	r.Correct = r.Failed == 0 && len(r.Invalid) == 0 && r.Attempted > 0
	r.WallS = clk.Now().Sub(wallStart).Seconds()
	return r, nil
}

// printResult prints every metric by name with its unit, then the same
// values under the names ISSUE.md gives them on this workload.
func printResult(w io.Writer, r *runResult, trace bool) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d  attempted=%d failed=%d fail_ratio=%g  wall=%.1fs build=%.1fs\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Extra["fail_ratio"], r.WallS, r.BuildS)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-28s %14.4f %-4s  %s\n", m.name, r.EndToEnd[m.name], m.unit, m.doc)
	}
	for _, a := range aliases[r.Workload] {
		fmt.Fprintf(w, "  %-26s %14.4f %-4s = %s: %s\n", a.name, r.EndToEnd[a.slot]*a.scale, a.unit, a.slot, a.doc)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "  %-26s %14.4f\n", k, r.Extra[k])
	}
	if trace {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-34s %14.4f %-5s  %s\n", m.name, r.Layers[m.name], m.unit, m.doc)
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contractLine renders the one JSON object the driver reads: exactly the
// keys correct, attempted, failed and metrics.
func contractLine(r *runResult, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, r.EndToEnd
	if trace {
		defs, values = perLayer, r.Layers
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.name] = value{values[m.name], m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // floats, strings and ints marshal unless a value is NaN, which is a bug
	}
	return string(out)
}

// summaryLine is the last line of an all-workloads run. This change
// defines the benchmark and claims no gain.
func summaryLine(results []*runResult) string {
	byName := make(map[string]map[string]float64, len(results))
	for _, r := range results {
		byName[r.Workload] = r.EndToEnd
	}
	out, err := json.Marshal(struct {
		Workloads map[string]map[string]float64 `json:"workloads"`
		Claim     *string                       `json:"claim"`
	}{byName, nil})
	if err != nil {
		panic(err)
	}
	return string(out)
}
