package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"
)

// spanKind names a span the benchmark records around one call into the
// program.
type spanKind uint8

const (
	spanRound spanKind = iota
	spanSetup
	spanRun
	spanPut
	spanGet
	spanPump
	spanSubmit
	spanWait
	spanPowerFail
	spanRecover
	spanReopen
	spanVerify
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"round", "setup", "run", "put", "get", "pump", "submit", "wait",
	"powerfail", "recover", "reopen", "verify",
}

func (k spanKind) MarshalText() ([]byte, error) { return []byte(spanNames[k]), nil }

// span is one timed call. Spans of one request share req; phases carry
// req -1. Times are host ns since the tracer started.
type span struct {
	Kind   spanKind `json:"kind"`
	Parent int32    `json:"parent"`
	Req    int32    `json:"req"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// tracer keeps spans in memory for the traced rounds and profiles their
// run phase. A nil tracer records nothing, which is how the untraced
// rounds that give the end-to-end figures run.
type tracer struct {
	base   time.Time
	spans  []span
	total  [numSpanKinds]int64
	count  [numSpanKinds]int64
	prof   bytes.Buffer
	profOn bool
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(k spanKind, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Kind: k, Parent: parent, Req: req, Start: time.Since(t.base).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.base).Nanoseconds()
	t.total[s.Kind] += s.End - s.Start
	t.count[s.Kind]++
}

// meanNs is the mean host duration of the spans of kind k (0 if none).
func (t *tracer) meanNs(k spanKind) float64 {
	if t.count[k] == 0 {
		return 0
	}
	return float64(t.total[k]) / float64(t.count[k])
}

func (t *tracer) startProfile() {
	if t == nil {
		return
	}
	t.prof.Reset()
	t.profOn = pprof.StartCPUProfile(&t.prof) == nil
}

func (t *tracer) stopProfile() *moduleTimes {
	if t == nil || !t.profOn {
		return nil
	}
	pprof.StopCPUProfile()
	t.profOn = false
	mt, err := attribute(t.prof.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading CPU profile:", err)
		return nil
	}
	return mt
}

// writeFile writes every span and the profile attribution as one JSON
// document.
func (t *tracer) writeFile(path string, extra map[string]any) error {
	doc := map[string]any{"spans": t.spans}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// modules are the buckets profile samples are charged to: each
// viyojit/internal/<module> package, the facade, the benchmark itself,
// and "runtime" for samples with no frame of either (GC workers, the
// scheduler).
var modules = []string{
	"mmu", "nvdram", "core", "ssd", "scrub", "health", "sensor", "battery",
	"kvstore", "pheap", "serve", "intent", "obs", "blackbox", "sim",
	"recovery", "other", "facade", "bench", "runtime",
}

// moduleTimes is CPU time per module, self and cumulative, in ns.
type moduleTimes struct {
	Self map[string]int64 `json:"self_ns"`
	Cum  map[string]int64 `json:"cum_ns"`
}

func (m *moduleTimes) add(o *moduleTimes) {
	for k, v := range o.Self {
		m.Self[k] += v
	}
	for k, v := range o.Cum {
		m.Cum[k] += v
	}
}

func newModuleTimes() *moduleTimes {
	return &moduleTimes{Self: map[string]int64{}, Cum: map[string]int64{}}
}

// moduleOf maps a function name to its bucket, or "" for standard
// library and runtime frames, which are charged to their nearest caller
// that has a bucket.
func moduleOf(fn string) string {
	const internal = "viyojit/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		mod := fn[len(internal):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range modules {
			if m == mod {
				return mod
			}
		}
		return "other"
	case strings.HasPrefix(fn, "viyojit."):
		return "facade"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "viyojit/perfbench."):
		return "bench" // the second form is how a test binary names it
	}
	return ""
}

// attribute charges every sample of a gzipped pprof CPU profile to
// modules: self to the innermost frame with a bucket, cumulative once to
// every bucket on the stack.
func attribute(raw []byte) (*moduleTimes, error) {
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	mt := newModuleTimes()
	for _, s := range p.samples {
		self := ""
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost first
				mod := moduleOf(fn)
				if mod == "" {
					continue
				}
				if self == "" {
					self = mod
				}
				seen[mod] = true
			}
		}
		if self == "" {
			self = "runtime"
			seen["runtime"] = true
		}
		mt.Self[self] += s.ns
		for mod := range seen {
			mt.Cum[mod] += s.ns
		}
	}
	return mt, nil
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location → function names, innermost first
}

type sample struct {
	locs []uint64
	ns   int64
}

// parseProfile decodes the gzipped protocol-buffer profile runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto), reading only
// samples, locations, functions and the string table.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}
		locLines  = map[uint64][]uint64{}
		rawSample [][]byte
		valueIdx  = -1
		typeIdx   []int64
	)
	err = fields(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			if err := fields(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, typ)
		case 2:
			rawSample = append(rawSample, data)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(d, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range typeIdx {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, fmt.Errorf("profile has no cpu sample type")
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for id, fns := range locLines {
		for _, f := range fns {
			if n := funcName[f]; n >= 0 && int(n) < len(strs) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[n])
			}
		}
	}
	for _, data := range rawSample {
		var s sample
		var vals []int64
		if err := fields(data, func(n, wire int, v uint64, d []byte) error {
			switch n {
			case 1:
				return repeated(wire, v, d, func(x uint64) { s.locs = append(s.locs, x) })
			case 2:
				return repeated(wire, v, d, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if valueIdx < len(vals) {
			s.ns = vals[valueIdx]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// repeated reads a repeated varint field in either packed or unpacked
// encoding.
func repeated(wire int, v uint64, d []byte, each func(uint64)) error {
	if wire == 0 {
		each(v)
		return nil
	}
	for len(d) > 0 {
		x, n := binary.Uvarint(d)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		each(x)
		d = d[n:]
	}
	return nil
}

// fields walks the top-level fields of one protocol-buffer message.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
