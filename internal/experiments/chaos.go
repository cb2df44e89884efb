package experiments

import (
	"context"
	"fmt"
	"strings"

	"sunuintah/internal/faults"
	"sunuintah/internal/runner"
)

// The chaos artifact measures the resilient runtime under the fault plane:
// the default fault plan is scaled across chaosScales and each scale runs
// chaosSeeds independent fault histories of a small 2-CG case. Reported
// per scale: how many runs recovered versus were lost, the wall-clock
// overhead relative to the fault-free baseline, and the injected-fault /
// recovery-action tallies. Every cell is a deterministic function of its
// spec, and collection order is fixed, so the artifact is byte-identical
// across worker counts and invocations.

// chaosScales multiply the default fault plan's rates; scale 0 is the
// fault-free baseline every overhead is measured against.
var chaosScales = []float64{0, 0.5, 1, 2}

const (
	chaosSeeds  = 8 // independent fault histories per scale
	chaosSteps  = 6 // default timesteps per run
	chaosCGs    = 2 // small case: enough ranks for halo traffic + crashes
	chaosCells  = "64x64x128"
	chaosLayout = "2x2x2"
)

// ChaosRow aggregates one fault-rate scale of the chaos matrix.
type ChaosRow struct {
	Scale     float64
	Runs      int
	Recovered int // runs that completed all steps (crash-free or restarted)
	Crashes   int
	Restarts  int
	MeanWall  float64 // mean virtual wall seconds over recovered runs
	Overhead  float64 // MeanWall vs the scale-0 baseline, in percent

	// Injected faults and recovery actions, summed over the scale's runs.
	Injected   faults.Counts
	Resends    int64
	Reoffloads int64
	Fallbacks  int64
}

// chaosSpec is one cell of the chaos matrix.
func chaosSpec(steps int, scale float64, seed uint64) runner.Spec {
	spec := runner.Spec{
		Cells:   chaosCells,
		Layout:  chaosLayout,
		CGs:     chaosCGs,
		Variant: "acc.async",
		Steps:   steps,
	}
	if scale > 0 {
		plan := faults.Default().Scaled(scale)
		plan.Seed = seed
		spec.Faults = plan
	}
	return spec
}

// ChaosRows runs the chaos matrix on the sweep's pool and aggregates it
// per scale. steps <= 0 means the default short run.
func ChaosRows(s *Sweep, steps int) ([]ChaosRow, error) {
	if steps <= 0 {
		steps = chaosSteps
	}
	// Submit the whole matrix before collecting anything, so the runs
	// saturate the pool. The fault-free baseline is a single cell: with no
	// plan there is no fault seed for the histories to differ by.
	jobs := map[float64][]*runner.Job{}
	for _, scale := range chaosScales {
		n := chaosSeeds
		if scale == 0 {
			n = 1
		}
		for seed := 1; seed <= n; seed++ {
			jobs[scale] = append(jobs[scale], s.Pool().Submit(chaosSpec(steps, scale, uint64(seed))))
		}
	}

	var rows []ChaosRow
	baseline := 0.0
	for _, scale := range chaosScales {
		row := ChaosRow{Scale: scale}
		wall := 0.0
		for _, j := range jobs[scale] {
			res, err := j.Wait(context.Background())
			if err != nil {
				return nil, fmt.Errorf("chaos scale %g: %w", scale, err)
			}
			if !res.Feasible || res.Sim == nil {
				return nil, fmt.Errorf("chaos scale %g: infeasible cell", scale)
			}
			row.Runs++
			sim := res.Sim
			if fr := sim.Faults; fr != nil {
				row.Injected.Add(fr.Injected)
				row.Resends += fr.Resends
				row.Reoffloads += fr.Reoffloads
				row.Fallbacks += fr.MPEFallbacks
				if rec := fr.Recovery; rec != nil {
					row.Crashes += rec.Crashes
					row.Restarts += rec.Restarts
				}
			}
			if sim.Steps == steps {
				row.Recovered++
				wall += float64(sim.WallTime)
			}
		}
		if row.Recovered > 0 {
			row.MeanWall = wall / float64(row.Recovered)
		}
		if scale == 0 {
			baseline = row.MeanWall
		} else if baseline > 0 {
			row.Overhead = (row.MeanWall - baseline) / baseline * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatChaos renders the chaos matrix as a fixed-width table.
func FormatChaos(rows []ChaosRow, steps int) string {
	if steps <= 0 {
		steps = chaosSteps
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos matrix: %s cells (%s patches) @ %d CGs, acc.async, %d steps, %d seeds/scale\n",
		chaosCells, chaosLayout, chaosCGs, steps, chaosSeeds)
	fmt.Fprintf(&b, "fault plan: default rates x scale (crash %.2f/run at x1), checkpoint every %d steps\n\n",
		faults.Default().Crash, faults.Default().Normalized().CheckpointEvery)
	fmt.Fprintf(&b, "%5s %5s %9s %7s %8s %10s %9s %6s %7s %7s %7s %7s\n",
		"scale", "runs", "recovered", "crashes", "restarts", "wall(ms)", "overhead",
		"drops", "resends", "stalls", "re-off", "mpe-fb")
	for _, r := range rows {
		overhead := "-"
		if r.Scale > 0 {
			overhead = fmt.Sprintf("%+.1f%%", r.Overhead)
		}
		fmt.Fprintf(&b, "%5.1f %5d %9s %7d %8d %10.3f %9s %6d %7d %7d %7d %7d\n",
			r.Scale, r.Runs, fmt.Sprintf("%d/%d", r.Recovered, r.Runs),
			r.Crashes, r.Restarts, r.MeanWall*1e3, overhead,
			r.Injected.MsgsDropped, r.Resends, r.Injected.OffloadStalls,
			r.Reoffloads, r.Fallbacks)
	}
	return b.String()
}

// Chaos is the "chaos" artifact: overhead-versus-fault-rate and
// recovered-versus-lost for the resilient runtime.
func Chaos(s *Sweep, steps int) (string, error) {
	rows, err := ChaosRows(s, steps)
	if err != nil {
		return "", err
	}
	return FormatChaos(rows, steps), nil
}
