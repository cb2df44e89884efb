package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layers are the packages host CPU time is attributed to, in the order the
// host.<layer>_frac metrics are declared.
var layers = []string{
	"sim", "scheduler", "mpisim", "athread", "sw26010", "dw", "field",
	"burgers", "taskgraph", "grid", "obs", "runner",
}

const (
	layerSched = "runtime_sched"
	layerGC    = "runtime_gc"
	layerOther = "other"
)

// stack is one profile sample: function names leaf first, and how many
// sampling ticks hit it.
type stack struct {
	funcs []string
	count int64
}

// foldByLayer charges every sample to the nearest sunuintah/internal/<pkg>
// frame walking up from the leaf, so math.Exp, memmove, mallocgc and channel
// operations cost the layer that called them. Stacks without such a frame
// are the Go scheduler, the garbage collector, or other. The returned
// fractions sum to 1 (all zero for an empty profile).
func foldByLayer(stacks []stack) map[string]float64 {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[layerOf(s.funcs, known)] += s.count
		total += s.count
	}
	out := map[string]float64{layerSched: 0, layerGC: 0, layerOther: 0}
	for _, l := range layers {
		out[l] = 0
	}
	if total == 0 {
		return out
	}
	for l, c := range counts {
		out[l] = float64(c) / float64(total)
	}
	return out
}

func layerOf(funcs []string, known map[string]bool) string {
	const prefix = "sunuintah/internal/"
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, prefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if known[pkg] {
				return pkg
			}
			return layerOther // core, experiments, …: glue between the layers
		}
	}
	for _, fn := range funcs {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcDrain"):
			return layerGC
		}
	}
	for _, fn := range funcs {
		switch fn {
		case "runtime.schedule", "runtime.park_m", "runtime.findRunnable", "runtime.goschedImpl",
			"runtime.mcall", "runtime.mstart", "runtime.goexit0", "runtime.gopreempt_m":
			return layerSched
		}
	}
	return layerOther
}

// cpuProfile accumulates CPU profile samples over several start/stop
// intervals, so profiled and unprofiled windows can be interleaved.
type cpuProfile struct {
	buf    bytes.Buffer
	stacks []stack
}

func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	st, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	p.stacks = append(p.stacks, st...)
	return nil
}

// alternate calls fn rounds times unprofiled and rounds times under the CPU
// profiler, taking turns, so a host slowdown hits both sides alike.
func (p *cpuProfile) alternate(rounds int, fn func(profiled bool) error) error {
	for r := 0; r < rounds; r++ {
		if err := fn(false); err != nil {
			return err
		}
		if err := p.start(); err != nil {
			return err
		}
		err := fn(true)
		if stopErr := p.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeProfile reads a gzipped pprof protobuf (profile.proto) with the
// standard library only and returns its samples as function-name stacks. It
// takes the first value of each sample (CPU profiles: the tick count).
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost inlined first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // value
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint handles a repeated integer field in either encoding: packed
// (payload non-nil) or a single unpacked value v.
func eachVarint(v uint64, payload []byte, fn func(uint64)) error {
	if payload == nil {
		fn(v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		payload = payload[n:]
	}
	return nil
}
