package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestDocsArtifactsCurrent is what makes docs/artifacts.txt and
// docs/artifacts.json the definition of "same output": it renders every
// artifact at the default step count, exactly as `sunbench -cache off -json
// docs/artifacts.json all > docs/artifacts.txt` does, and byte-compares
// both files. After an intentional model or format change regenerate with
//
//	go test ./internal/experiments -run TestDocsArtifactsCurrent -update
func TestDocsArtifactsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation at the default steps")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens recorded on amd64; other ports may fuse multiply-adds in the timing model")
	}
	s := NewSweep(Options{Steps: Steps})
	defer s.Close()
	s.PrefetchEvaluation()

	var text bytes.Buffer
	for _, name := range ArtifactNames() {
		out, err := RunArtifact(s, name, Steps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text.WriteString(out)
		text.WriteByte('\n')
	}
	export, err := BuildExport(s, Steps)
	if err != nil {
		t.Fatal(err)
	}
	var structured bytes.Buffer
	if err := export.WriteJSON(&structured); err != nil {
		t.Fatal(err)
	}

	docs := filepath.Join("..", "..", "docs")
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"artifacts.txt", text.Bytes()},
		{"artifacts.json", structured.Bytes()},
	} {
		path := filepath.Join(docs, g.file)
		if *updateGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(g.got))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("rendered output deviates from %s (%d vs %d bytes); if the change is intended, regenerate with -update",
				path, len(g.got), len(want))
		}
	}
}
