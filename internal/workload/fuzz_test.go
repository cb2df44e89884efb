package workload

import "testing"

// FuzzWorkloadParse feeds arbitrary bytes to Parse. It must never panic,
// and an accepted scenario must survive the canonical round trip:
// Parse(sc.Canonical()) accepts it again and canonicalises to the same
// string. The seed corpus lives in testdata/fuzz/FuzzWorkloadParse.
func FuzzWorkloadParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		c := sc.Canonical()
		back, err := Parse([]byte(c))
		if err != nil {
			t.Fatalf("Parse(%s): %v: the canonical form of %q does not parse", c, err, data)
		}
		if got := back.Canonical(); got != c {
			t.Fatalf("round trip of %q:\ngot  %s\nwant %s", data, got, c)
		}
	})
}
