// Command bench is the repository's benchmark (see BENCHMARK.json and
// README.md in this directory). One invocation measures one workload:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints every metric by name and unit, checks the outputs, and ends with
// one JSON result line. --trace 0 reports the end-to-end metrics, measured
// with tracing off; --trace 1 is the separate traced run that reports the
// per-layer metrics. Without --workload it runs every workload in a child
// process each (-runs untraced runs and one traced run) and writes the set
// to -o; -compare A.json B.json judges two such sets against the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runOpts are one run's inputs.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload's input to smoke-test size; the metric
	// names do not change.
	tiny bool
	// root is the checkout (the directory holding BENCHMARK.json and the
	// repository's go.mod). build is where the sunserver binary and the
	// run's temporary files go, root/.bench_build unless a test redirects it.
	root  string
	build string
}

// measure is the timed length of the run.
func (o runOpts) measure() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

var runners = map[string]func(runOpts, *measured) error{
	"matrix-sweep":       runSweep,
	"halo-steady":        runHalo,
	"functional-burgers": runBurgers,
	"serve-mixed":        runServe,
}

// runWorkload measures one workload and returns the driver's result.
func runWorkload(o runOpts) (*result, *measured, error) {
	run, ok := runners[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	m, err := newMeasured()
	if err != nil {
		return nil, nil, err
	}
	m.calib.readN(3)
	if err := run(o, m); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	m.calib.readN(3)
	m.note("host speed index %.3f (median of %d readings; 1 = the reference host speed)", m.calib.median(), len(m.calib.speeds))
	defs := endToEnd
	if o.trace {
		defs = perLayer
		m.set("host.speed_index", m.calib.median())
		m.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
		m.set("host.nproc", float64(runtime.NumCPU()))
		if _, ok := m.vals["host.peak_rss_mb"]; !ok {
			m.set("host.peak_rss_mb", peakRSSMB(os.Getpid()))
		}
	}
	res, err := m.finish(defs, o.trace)
	return res, m, err
}

// printResult writes the human-readable metric list and, last, the JSON line.
func printResult(o runOpts, res *result, m *measured) error {
	fmt.Printf("workload %s seed %d seconds %g trace %v gomaxprocs %d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	for _, n := range m.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-32s %16.6g %s\n", name, v.Value, v.Unit)
	}
	for _, f := range m.failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory; pass -root")
		}
		dir = parent
	}
}

func main() {
	var o runOpts
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "timed length of one run")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	flag.BoolVar(&o.tiny, "tiny", false, "smoke-test scale")
	flag.StringVar(&o.root, "root", "", "checkout root (default: nearest parent holding BENCHMARK.json)")
	runs := flag.Int("runs", 1, "all-workloads mode: untraced runs per workload, seeds seed..seed+runs-1")
	out := flag.String("o", "", "all-workloads mode: result set file (default <root>/.bench_build/result.json)")
	compare := flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables")
	flag.Parse()
	o.trace = *trace != 0

	if err := mainErr(o, *runs, *out, *compare, *printManifest, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(o runOpts, runs int, out string, compare, printManifest bool, args []string) error {
	if printManifest {
		_, err := os.Stdout.Write(manifest())
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("usage: bench -compare A.json B.json")
		}
		return compareFiles(args[0], args[1])
	}
	if o.root == "" {
		root, err := findRoot()
		if err != nil {
			return err
		}
		o.root = root
	}
	o.build = filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(o.build, 0o755); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(o, runs, out)
	}
	res, m, err := runWorkload(o)
	if err != nil {
		return err
	}
	if err := printResult(o, res, m); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}
