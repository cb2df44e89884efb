package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// resultSchema versions the result-set file.
const resultSchema = 1

// runRecord is one run inside a result set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// resultSet is what the all-workloads mode writes and -compare reads.
type resultSet struct {
	Schema     int         `json:"schema"`
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Go         string      `json:"go"`
	Runs       []runRecord `json:"runs"`
}

// runAll measures every workload, each run in a child process of this
// binary so heap state and VmHWM do not leak between them: runs untraced
// runs on seeds seed..seed+runs-1, then one traced run on seed.
func runAll(o runOpts, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(o.build, "result.json")
	}
	set := resultSet{Schema: resultSchema, Seed: o.seed, Seconds: o.seconds,
		GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	failed := 0
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			rec := runRecord{Workload: w.Name, Seed: o.seed + uint64(i), Trace: i == runs}
			if rec.Trace {
				rec.Seed = o.seed
			}
			args := []string{"-root", o.root, "--workload", w.Name, "--seed", strconv.FormatUint(rec.Seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0"}
			if rec.Trace {
				args[len(args)-1] = "1"
			}
			if o.tiny {
				args = append(args, "-tiny")
			}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
				return fmt.Errorf("%s seed %d: no result line (%v): %w", w.Name, rec.Seed, runErr, err)
			}
			if runErr != nil || !rec.Correct {
				failed++
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d runs\n", out, len(set.Runs))
	if failed > 0 {
		return fmt.Errorf("%d runs failed a correctness check", failed)
	}
	return nil
}
