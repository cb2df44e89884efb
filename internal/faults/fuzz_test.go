package faults

import (
	"fmt"
	"testing"
)

// FuzzFaultsParse feeds arbitrary plan strings to Parse. It must never
// panic, an accepted plan must pass Validate, and it must survive a round
// trip through the keys Parse accepts: spec(p) parses back to p. The seed
// corpus lives in testdata/fuzz/FuzzFaultsParse.
func FuzzFaultsParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil || p == nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid plan: %v", s, err)
		}
		q, err := Parse(spec(p))
		if err != nil || q == nil {
			t.Fatalf("Parse(%q) = %v, %v: the spec of %q does not parse", spec(p), q, err, s)
		}
		if *q != *p || q.Canonical() != p.Canonical() {
			t.Fatalf("round trip of %q: %+v, want %+v", s, *q, *p)
		}
	})
}

// spec renders p in Parse's syntax, every key Parse accepts once.
func spec(p *Plan) string {
	return fmt.Sprintf("seed=%d,drop=%g,dup=%g,delay=%g,degrade=%g,stall=%g,straggle=%g,crash=%g,crash-at=%d,crash-rank=%d",
		p.Seed, p.Drop, p.Dup, p.Delay, p.Degrade, p.Stall, p.Straggle, p.Crash, p.CrashAtStep, p.CrashRank)
}
