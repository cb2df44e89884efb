package stats

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	var tb Table
	tb.Align = "lr"
	tb.AddRow("name", "value")
	tb.AddRow("x", "10")
	tb.AddRow("longer", "3")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("out = %q", out)
	}
	if !strings.HasPrefix(lines[1], "x ") {
		t.Errorf("left align broken: %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], "     3") {
		t.Errorf("right align broken: %q", lines[2])
	}
}
