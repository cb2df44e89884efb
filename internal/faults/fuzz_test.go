package faults

import "testing"

// FuzzFaultsParse feeds arbitrary plan strings to Parse. It must never
// panic, and an accepted plan must survive the canonical round trip:
// Parse(p.Canonical()) is p with its defaults filled in, and canonicalises
// to the same string. The seed corpus lives in
// testdata/fuzz/FuzzFaultsParse.
func FuzzFaultsParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil || p == nil {
			return
		}
		q, err := Parse(p.Canonical())
		if err != nil || q == nil {
			t.Fatalf("Parse(%q) = %v, %v: the canonical form of %q does not parse", p.Canonical(), q, err, s)
		}
		if *q != p.Normalized() || q.Canonical() != p.Canonical() {
			t.Fatalf("round trip of %q: %+v, want %+v", s, *q, p.Normalized())
		}
	})
}
