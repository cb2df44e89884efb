package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sunuintah/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite the export golden file")

func buildExportBytes(t *testing.T, jobs int) []byte {
	t.Helper()
	pool := NewPool(jobs, runner.NewMemoryCache(0), nil)
	defer pool.Close()
	s := NewSweepWithPool(Options{Steps: 1}, pool)
	e, err := BuildExport(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportGolden locks the full JSON export down to the byte: it must
// be stable under the parallel execution order (serial and 8-worker runs
// identical) and match the checked-in golden file. Regenerate with
//
//	go test ./internal/experiments -run TestExportGolden -update
//
// after an intentional cost-model or export-schema change.
func TestExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	parallel := buildExportBytes(t, 8)
	serial := buildExportBytes(t, 1)
	if !bytes.Equal(parallel, serial) {
		t.Fatal("export differs between serial and parallel execution")
	}

	golden := filepath.Join("testdata", "export.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, parallel, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(parallel))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(parallel, want) {
		t.Errorf("export deviates from %s (%d vs %d bytes); if the cost model changed intentionally, regenerate with -update",
			golden, len(parallel), len(want))
	}

	// The golden bytes must round-trip as structured data.
	var back Export
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatalf("golden export does not round-trip: %v", err)
	}
	if len(back.TableI) != 7 || len(back.TableV) != 7 || len(back.Figure5) != 28 {
		t.Errorf("round-tripped export incomplete: %d/%d/%d", len(back.TableI), len(back.TableV), len(back.Figure5))
	}
	if back.TableVI == nil || back.TableVI.Average == 0 {
		t.Error("round-tripped table VI missing")
	}
}
