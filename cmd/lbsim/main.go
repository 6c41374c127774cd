// Command lbsim regenerates the experiments recorded in EXPERIMENTS.md:
//
//	lbsim -exp h1        policy comparison (the headline uniform-load claim)
//	lbsim -exp period    collection-period sweep around the thesis's 25 s
//	lbsim -exp timeofday <starttime>/<endtime> window behaviour
//	lbsim -exp netdelay  the §5.2 future-work network-delay constraint
//	lbsim -exp failure   host-failure reaction (collector failure tracking)
//	lbsim -exp scale     deployment-size sweep
//	lbsim -exp ablation  filter/rank/fallback/freshness design choices
//	lbsim -exp flaky     NodeStatus drop faults, breakers, quarantine (H7)
//	lbsim -exp flashcrowd  overload resilience under a 10x surge (H8)
//	lbsim -exp all       everything above
//
// All experiments run on the simulated SDSU cluster under a deterministic
// virtual clock, so outputs are reproducible for a given -seed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/lbexp"
	"repro/internal/metrics"
	"repro/internal/mtc"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: h1|period|timeofday|netdelay|failure|scale|ablation|flaky|flashcrowd|all")
		hosts = flag.Int("hosts", 4, "number of simulated hosts")
		tasks = flag.Int("tasks", 300, "MTC tasks per run")
		seed  = flag.Int64("seed", 42, "workload seed")
		inter = flag.Duration("interarrival", 2*time.Second, "mean task interarrival")
		cpu   = flag.Float64("cpu", 10, "mean task CPU seconds")
		out   = flag.String("o", "", "also write the report to this file")
	)
	flag.Parse()

	w := &reportWriter{}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w.file = f
	}

	workload := mtc.Workload{
		Tasks:            *tasks,
		MeanInterarrival: *inter,
		TaskCPU:          *cpu,
		TaskMemB:         64 << 20,
		Seed:             *seed,
	}
	base := lbexp.Config{Hosts: *hosts, Heterogeneous: true, Workload: workload}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		w.printf("\n== experiment %s ==\n", name)
		if err := f(); err != nil {
			log.Fatalf("lbsim %s: %v", name, err)
		}
	}

	run("h1", func() error {
		w.printf("H1: per-policy load balance for %d tasks on %d heterogeneous hosts (seed %d)\n\n",
			*tasks, *hosts, *seed)
		tbl, reports, err := lbexp.ComparePolicies(base, lbexp.H1Combos)
		if err != nil {
			return err
		}
		w.printf("%s\n", tbl)
		w.printf("per-host completed tasks:\n")
		share := metrics.NewTable(append([]string{"policy"}, lbexp.HostNames[:*hosts]...)...)
		for i, combo := range lbexp.H1Combos {
			cells := []interface{}{combo.Name}
			for _, v := range reports[i].TaskShare(lbexp.HostNames[:*hosts]) {
				cells = append(cells, v)
			}
			share.AddRow(cells...)
		}
		w.printf("%s\n", share)
		return nil
	})

	run("period", func() error {
		w.printf("H2: collection-period sweep (thesis default 25s), least-loaded policy\n\n")
		cfg := base
		cfg.RegistryPolicy = core.PolicyLeastLoaded
		tbl, err := lbexp.PeriodSweep(cfg, []time.Duration{
			time.Second, 5 * time.Second, 25 * time.Second, time.Minute, 2 * time.Minute,
		})
		if err != nil {
			return err
		}
		w.printf("%s\n", tbl)
		return nil
	})

	run("timeofday", func() error {
		w.printf("H3: 1000-1200 service window queried at different hours, both window modes\n\n")
		_, tbl, err := lbexp.TimeOfDay(*hosts)
		if err != nil {
			return err
		}
		w.printf("%s\n", tbl)
		return nil
	})

	run("netdelay", func() error {
		w.printf("H4 (§5.2 extension): netdelay ls 30 over hosts at 5/20/35/... ms\n\n")
		tbl, err := lbexp.NetDelay(*hosts, 30)
		if err != nil {
			return err
		}
		w.printf("%s\n", tbl)
		return nil
	})

	run("failure", func() error {
		w.printf("H5: host 1 fails 120s into the workload; registry reaction\n\n")
		cfg := base
		cfg.Workload.Tasks = *tasks
		// Light memory footprint and a permissive constraint isolate the
		// dead-host story from memory-pressure and load-filter effects.
		cfg.Workload.TaskMemB = 8 << 20
		cfg.Constraint = `<constraint><cpuLoad>load ls 1000.0</cpuLoad></constraint>`
		tbl, _, err := lbexp.Failure(cfg, 2*time.Minute)
		if err != nil {
			return err
		}
		w.printf("%s\n", tbl)
		return nil
	})

	run("scale", func() error {
		w.printf("H6: deployment-size sweep — stock vs balanced as hosts grow\n\n")
		tbl := metrics.NewTable("hosts", "registry", "completed", "loadFairness", "latMean(s)")
		for _, hosts := range []int{2, 4, 6, 8} {
			for _, combo := range []lbexp.Combo{
				{Name: "stock", Registry: core.PolicyStock, Client: mtc.ClientFirst},
				{Name: "lb", Registry: core.PolicyLeastLoaded, Client: mtc.ClientFirst, Fallback: true},
			} {
				cfg := base
				cfg.Hosts = hosts
				cfg.RegistryPolicy = combo.Registry
				cfg.ClientPolicy = combo.Client
				cfg.FallbackAll = combo.Fallback
				rep, err := lbexp.Run(cfg)
				if err != nil {
					return err
				}
				tbl.AddRow(hosts, combo.Name, rep.Completed,
					rep.MeanFairness(), rep.LatencySummary().Mean)
			}
		}
		w.printf("%s\n", tbl)
		return nil
	})

	run("ablation", func() error {
		w.printf("Ablations: fallback and freshness (DESIGN.md choices 2-3)\n\n")
		tbl := metrics.NewTable("variant", "completed", "dropped", "loadFairness")

		impossible := base
		impossible.RegistryPolicy = core.PolicyFilter
		impossible.Constraint = `<constraint><memory>memory gr 1024GB</memory></constraint>`
		impossible.Workload.Tasks = 50
		rep, err := lbexp.Run(impossible)
		if err != nil {
			return err
		}
		tbl.AddRow("filter, impossible constraint, no fallback", rep.Completed, rep.Dropped, rep.MeanFairness())

		withFB := impossible
		withFB.FallbackAll = true
		rep, err = lbexp.Run(withFB)
		if err != nil {
			return err
		}
		tbl.AddRow("filter, impossible constraint, fallback-all", rep.Completed, rep.Dropped, rep.MeanFairness())

		stale := base
		stale.RegistryPolicy = core.PolicyFilter
		stale.Freshness = 10 * time.Second
		stale.CollectionPeriod = 2 * time.Minute
		stale.Workload.Tasks = 50
		rep, err = lbexp.Run(stale)
		if err != nil {
			return err
		}
		tbl.AddRow("filter, 10s freshness vs 2m period", rep.Completed, rep.Dropped, rep.MeanFairness())

		rank := stale
		rank.RegistryPolicy = core.PolicyRankFirst
		rep, err = lbexp.Run(rank)
		if err != nil {
			return err
		}
		tbl.AddRow("rank-first, 10s freshness vs 2m period", rep.Completed, rep.Dropped, rep.MeanFairness())

		w.printf("%s\n", tbl)
		return nil
	})

	run("flaky", func() error {
		w.printf("H7: NodeStatus faults on %d of %d hosts — drop-rate sweep with\n", lbexp.FlakyHosts, len(lbexp.HostNames))
		w.printf("per-host breakers, quarantine, and static-degraded discovery\n\n")
		tbl, results, err := lbexp.Flaky(base, []float64{0, 0.1, 0.3, 0.6, 0.9})
		if err != nil {
			return err
		}
		w.printf("%s\n", tbl)
		w.printf("per-host completed tasks:\n%s\n", lbexp.FlakySharesTable(results))
		same, err := lbexp.FlakyReplayIdentical(base, 0.3)
		if err != nil {
			return err
		}
		w.printf("replay check (drop 0.3, seed %d): byte-identical = %v\n", *seed, same)
		return nil
	})

	run("flashcrowd", func() error {
		cfg := lbexp.DefaultFlashCrowd(*seed)
		w.printf("H8: overload resilience — %d baseline clients, %d-client flash crowd\n",
			cfg.BaselineClients, cfg.SurgeClients)
		w.printf("for %s; admission control, CoDel shedding, brownout ladder\n\n", cfg.Surge)
		baseline, surge, err := lbexp.FlashCrowd(cfg)
		if err != nil {
			return err
		}
		w.printf("%s\n", lbexp.FlashCrowdTable(baseline, surge))
		w.printf("per-phase assignment balance:\n%s\n", lbexp.FlashCrowdBalanceTable(cfg.Hosts, baseline, surge))
		same, err := lbexp.FlashCrowdReplayIdentical(cfg)
		if err != nil {
			return err
		}
		w.printf("replay check (seed %d): byte-identical = %v\n", *seed, same)
		return nil
	})
}

// reportWriter tees output to stdout and an optional file.
type reportWriter struct {
	file *os.File
}

func (w *reportWriter) printf(format string, args ...interface{}) {
	fmt.Printf(format, args...)
	if w.file != nil {
		fmt.Fprintf(w.file, format, args...)
	}
}
