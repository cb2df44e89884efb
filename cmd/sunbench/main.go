// Command sunbench regenerates every table and figure of the paper's
// evaluation on the simulated Sunway TaihuLight, plus the future-work
// ablations. Results print in the paper's layout; EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// Independent cases execute concurrently on -jobs workers, and results
// are memoised by content hash; with -cache DIR the memo persists on
// disk, so a second invocation skips every completed case.
//
// Usage:
//
//	sunbench [-steps N] [-noise f -repeats k] [-faults plan] [-jobs N]
//	         [-cache dir|off] [-json file] [-scenario file] [-report]
//	         [-metrics-out file] [-cpuprofile file] [-memprofile file]
//	         [-v] <artifact>...
//
// Artifacts: table1 table2 table3 table4 table5 table6 table7
// fig5 fig6 fig7 fig8 fig9 fig10 ablation-dma ablation-packing
// ablation-groups ablation-tiles chaos workload summary all
//
// -faults injects a deterministic fault plan into every run ("default",
// "default,scale=2", or "seed=1,drop=0.05,crash=0.5,..."; "off" disables).
// The chaos artifact runs its own fault matrix and ignores -faults.
//
// -scenario FILE expands a declarative workload scenario (see
// internal/workload) into its job schedule, runs every job on the pool
// and prints the per-phase report; the "workload" artifact runs the
// built-in default scenario plus a record-and-replay leg.
//
// -report runs a representative case with the flight recorder attached and
// prints its run report (virtual-time series summary, overlap, roofline,
// critical-path breakdown); -metrics-out FILE additionally writes the full
// report plus the pool's job metrics as JSON. Both work with or without
// artifact arguments.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sunuintah/internal/experiments"
	"sunuintah/internal/faults"
	"sunuintah/internal/obs"
	"sunuintah/internal/runner"
	"sunuintah/internal/workload"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sunbench [-steps N] [-noise f -repeats k] [-faults plan] [-jobs N] [-cache dir|off] [-json file] [-scenario file] [-report] [-metrics-out file] [-cpuprofile file] [-memprofile file] [-v] <artifact>...")
	fmt.Fprintln(os.Stderr, "artifacts: table1..table7 fig5..fig10 ablation-dma ablation-packing ablation-groups ablation-tiles chaos workload summary all")
}

// reorderArgs moves flag tokens ahead of positionals so invocations like
// "sunbench all -jobs 4" work: Go's flag package stops parsing at the
// first non-flag argument.
func reorderArgs(args []string, boolFlags map[string]bool) []string {
	var flags, positional []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if len(a) < 2 || a[0] != '-' {
			positional = append(positional, a)
			continue
		}
		flags = append(flags, a)
		name := strings.TrimLeft(a, "-")
		if !strings.Contains(a, "=") && !boolFlags[name] && i+1 < len(args) {
			i++
			flags = append(flags, args[i])
		}
	}
	return append(flags, positional...)
}

func main() {
	steps := flag.Int("steps", experiments.Steps, "timesteps per run")
	noise := flag.Float64("noise", 0, "machine-instability jitter fraction (0 disables)")
	repeats := flag.Int("repeats", 1, "with -noise: repeat each case and keep the best, like the paper")
	faultsFlag := flag.String("faults", "off", `fault plan: "off", "default", "default,scale=F" or "seed=N,drop=f,crash=f,..."`)
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation jobs")
	cacheFlag := flag.String("cache", "off", `result cache: "off", or a directory for an on-disk store (e.g. .suncache)`)
	jsonPath := flag.String("json", "", "also write the full evaluation as structured JSON to this file")
	scenario := flag.String("scenario", "", "run a workload scenario JSON file through the pool and print its per-phase report")
	report := flag.Bool("report", false, "run a representative case with the flight recorder and print its run report")
	metricsOut := flag.String("metrics-out", "", "write the flight-recorder report and pool metrics as JSON to this file (implies -report)")
	verbose := flag.Bool("v", false, "print per-case progress as [done/total, hit-rate]")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	flag.CommandLine.Parse(reorderArgs(os.Args[1:], map[string]bool{"v": true, "report": true}))
	args := flag.Args()
	wantReport := *report || *metricsOut != ""
	if len(args) == 0 && !wantReport && *scenario == "" {
		usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sunbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sunbench:", err)
			}
		}()
	}

	// Validate every artifact name up front: an unknown name after valid
	// ones must fail before any sweep runs, not midway through.
	runAll := false
	var wanted []string
	seen := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			runAll = true
			continue
		}
		if !experiments.IsArtifact(a) {
			fmt.Fprintf(os.Stderr, "sunbench: unknown artifact %q\n", a)
			usage()
			os.Exit(2)
		}
		if !seen[a] {
			seen[a] = true
			wanted = append(wanted, a)
		}
	}
	if runAll {
		wanted = experiments.ArtifactNames()
	}

	var cache runner.Cache = runner.NewMemoryCache(0)
	if *cacheFlag != "off" && *cacheFlag != "" {
		dc, err := runner.NewDiskCache(*cacheFlag, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
		cache = dc
	}

	// Cache hits print nothing: the cache is also the sweep's memo, so every
	// artifact re-reading a cell is one. The final metrics line counts them.
	var onEvent func(runner.Event)
	if *verbose {
		onEvent = func(ev runner.Event) {
			switch ev.Type {
			case runner.EventStarted:
				fmt.Fprintf(os.Stderr, "[%d/%d, %.0f%% hit] running %s...\n",
					ev.Done, ev.Total, ev.HitRate*100, ev.Spec)
			case runner.EventRetried:
				fmt.Fprintf(os.Stderr, "[%d/%d] retrying %s: %v\n", ev.Done, ev.Total, ev.Spec, ev.Err)
			}
		}
	}

	plan, err := faults.Parse(*faultsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sunbench:", err)
		os.Exit(2)
	}

	pool := experiments.NewPool(*jobs, cache, onEvent)
	defer pool.Close()
	sweep := experiments.NewSweepWithPool(
		experiments.Options{Steps: *steps, Noise: *noise, Repeats: *repeats, Faults: plan}, pool)

	// A full (or near-full) evaluation saturates the pool from the start;
	// single artifacts prefetch their own cells.
	if runAll || len(wanted) > 3 {
		sweep.PrefetchEvaluation()
	}

	for _, name := range wanted {
		out, err := experiments.RunArtifact(sweep, name, *steps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sunbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Println()
	}

	if *scenario != "" {
		data, err := os.ReadFile(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
		sc, err := workload.Parse(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
		rep, err := experiments.RunScenario(sweep, sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
	}

	if wantReport {
		if err := runFlightReport(pool, *steps, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		export, err := experiments.BuildExport(sweep, *steps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunbench: json export:", err)
			os.Exit(1)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
		if err := export.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}

	if *verbose {
		fmt.Fprintln(os.Stderr, "sunbench:", pool.Metrics())
	}
}

// runFlightReport executes a representative small case with the flight
// recorder attached and prints its run report. The run bypasses the result
// cache deliberately: Report is excluded from the content hash, so a cached
// result could legitimately lack the report this invocation asked for.
func runFlightReport(pool *experiments.Pool, steps int, metricsOut string) error {
	spec := runner.Spec{Cells: "16x16x32", Layout: "2x2x2", CGs: 8,
		Variant: "acc.async", Steps: steps, Report: true, Trace: true}
	res, err := experiments.Exec(context.Background(), spec)
	if err != nil {
		return err
	}
	if !res.Feasible || res.Sim == nil {
		return fmt.Errorf("report case %s is infeasible", spec)
	}
	fmt.Printf("flight report for %s:\n", spec)
	res.Sim.Obs.WriteTable(os.Stdout)
	fmt.Println()
	res.Sim.Obs.WriteCriticalPath(os.Stdout)
	fmt.Println()
	if metricsOut == "" {
		return nil
	}
	out := struct {
		Spec   runner.Spec    `json:"spec"`
		Report *obs.Report    `json:"report"`
		Pool   runner.Metrics `json:"pool"`
	}{spec, res.Sim.Obs, pool.Metrics()}
	f, err := os.Create(metricsOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", metricsOut)
	return nil
}
