// Command perfbench is the repository's benchmark: YCSB traffic on the
// Viyojit stack through its public facade, each round ending in a power
// failure and a recovery that the benchmark's own model checks. It
// measures both clocks: the virtual clock of the modelled system and the
// host clock of the simulator. See README.md.
//
//	bash perfbench/run.sh --workload kv-a-tight --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness verdict, the operations attempted and failed, and every
// metric: the end-to-end ones with --trace 0, the per-layer ones with
// --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// End-to-end metrics. The v_ ones, ssd_write_amp, flush_energy_j and
// recover_v_ms are virtual-clock figures; the rest are host figures.
var endToEnd = []metricDef{
	{"v_goodput_kops", "kops/vs"},
	{"v_p50_us", "us"},
	{"v_p99_us", "us"},
	{"v_p999_us", "us"},
	{"ssd_write_amp", "ratio"},
	{"flush_energy_j", "J"},
	{"recover_v_ms", "ms"},
	{"host_kops", "kops/s"},
	{"allocs_per_op", "allocs/op"},
	{"alloc_bytes_per_op", "B/op"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// Per-layer metrics read from the layers' counters (virtual, identical
// in every round of a seed).
var layerVirtual = []metricDef{
	{"mmu.faults_per_op", "count/op"},
	{"mmu.tlb_misses_per_op", "count/op"},
	{"mmu.tlb_flushes", "count"},
	{"mmu.pte_updates_per_op", "count/op"},
	{"core.forced_cleans", "count"},
	{"core.proactive_cleans", "count"},
	{"core.fault_wait_us_per_op", "us/op"},
	{"core.epochs", "count"},
	{"core.max_dirty_pages", "pages"},
	{"powerfail.pages_flushed", "pages"},
	{"powerfail.flush_ms", "ms"},
	{"ssd.bytes_written", "B"},
	{"ssd.writes", "count"},
	{"ssd.submit_stalls", "count"},
	{"ssd.avg_write_latency_us", "us"},
	{"ssd.durable_pages", "pages"},
	{"scrub.bursts", "count"},
	{"scrub.pages_scanned", "pages"},
	{"health.ticks", "count"},
	{"health.retunes", "count"},
	{"kvstore.chain_steps_per_op", "count/op"},
	{"kvstore.get_v_p99_us", "us"},
	{"kvstore.put_v_p99_us", "us"},
	{"serve.queue_wait_p99_us", "us"},
	{"intent.append_bytes_per_write", "B/op"},
	{"blackbox.appends", "count"},
	{"blackbox.drops", "count"},
	{"recovery.pages_restored", "pages"},
	{"recovery.pages_verified", "pages"},
}

// Spans timed around calls into the program in the traced rounds.
var layerSpans = []struct {
	name string
	kind spanKind
	ms   bool // a phase reported in ms per round, else ns per call
}{
	{"span.put_host_ns", spanPut, false},
	{"span.get_host_ns", spanGet, false},
	{"span.pump_host_ns", spanPump, false},
	{"span.submit_host_ns", spanSubmit, false},
	{"span.wait_host_ns", spanWait, false},
	{"span.powerfail_host_ms", spanPowerFail, true},
	{"span.recover_host_ms", spanRecover, true},
	{"span.reopen_host_ms", spanReopen, true},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "how long to keep starting rounds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", "", "directory for the traced run's span and profile file (none if empty)")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload one of kv-a-tight, kv-b-roomy, serve-a-durable; --trace 0|1; --seconds >= 1")
		os.Exit(2)
	}
	res := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// minRounds is the fewest rounds a run makes, whatever --seconds says:
// host figures are medians over rounds. A traced run alternates
// untraced and traced rounds and needs two of each.
const minRounds, minTracedRounds = 3, 4

// run repeats whole rounds of the workload until the time is up. Every
// round rebuilds the stack from the same seed, so its virtual figures
// must equal the first round's exactly; host figures are medians.
func run(w workload, seed uint64, budget time.Duration, traced bool, traceDir string) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
	rounds := minRounds
	if traced {
		rounds = minTracedRounds
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var plain, withTrace []*roundResult
	start := time.Now()
	for r := 0; r < rounds || time.Since(start) < budget; r++ {
		var rt *tracer
		if traced && r%2 == 1 {
			rt = tr
		}
		// The previous round's stacks are garbage now; collecting them
		// here keeps that work out of this round's timings.
		runtime.GC()
		var rr *roundResult
		var err error
		if w.serve {
			rr, err = runServe(w, seed, rt)
		} else {
			rr, err = runKV(w, seed, rt)
		}
		if rr != nil {
			res.Attempted += rr.attempted
			res.Failed += rr.failed
		}
		if err != nil {
			fail("round %d: %v", r+1, err)
			return res
		}
		kind := ""
		if rt != nil {
			kind = " (traced)"
		}
		fmt.Printf("round %d%s: setup %.3fs run %.3fs (%.2f kops/s) powerfail %.3fs recover %.3fs reopen %.3fs\n",
			r+1, kind, rr.setup.Seconds(), rr.run.Seconds(),
			rr.hostKops(), rr.powerfail.Seconds(), rr.recover.Seconds(), rr.reopen.Seconds())
		if len(plain) > 0 {
			if diff := diffVirtual(plain[0].virt, rr.virt); diff != "" {
				fail("round %d virtual figures differ from round 1 on the same seed: %s", r+1, diff)
			}
		}
		if rt != nil {
			withTrace = append(withTrace, rr)
		} else {
			plain = append(plain, rr)
		}
	}
	if res.Failed > 0 {
		fail("%d of %d operations failed", res.Failed, res.Attempted)
	}
	first := plain[0]
	fmt.Printf("workload %s seed %d: %d rounds, %d operations attempted, %d failed\n",
		w.name, seed, len(plain)+len(withTrace), res.Attempted, res.Failed)
	fmt.Printf("percentile samples per round: %d requests (%d reads, %d writes)\n",
		first.samples, first.getSamples, first.putSamples)

	set := func(name, unit string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("  %-36s %14.6g %s\n", name, v, unit)
	}
	if !traced {
		host := map[string]float64{
			"host_kops":          median(plain, (*roundResult).hostKops),
			"allocs_per_op":      median(plain, func(r *roundResult) float64 { return float64(r.allocs) / float64(r.samples) }),
			"alloc_bytes_per_op": median(plain, func(r *roundResult) float64 { return float64(r.allocBytes) / float64(r.samples) }),
			"peak_heap_mb":       median(plain, func(r *roundResult) float64 { return float64(r.peakHeap) / (1 << 20) }),
			"setup_s":            median(plain, func(r *roundResult) float64 { return r.setup.Seconds() }),
		}
		for _, d := range endToEnd {
			v, ok := first.virt[d.name]
			if !ok {
				v = host[d.name]
			}
			set(d.name, d.unit, v)
		}
		return res
	}

	for _, d := range layerVirtual {
		set(d.name, d.unit, first.virt[d.name])
	}
	set("serve.max_queue", "count", median(withTrace, func(r *roundResult) float64 { return float64(r.maxQueue) }))
	for _, s := range layerSpans {
		if s.ms {
			set(s.name, "ms", tr.meanNs(s.kind)/1e6)
		} else {
			set(s.name, "ns", tr.meanNs(s.kind))
		}
	}
	prof := newModuleTimes()
	tracedOps := 0
	for _, r := range withTrace {
		if r.profile != nil {
			prof.add(r.profile)
		}
		tracedOps += r.samples
	}
	for _, m := range modules {
		set("host_self_ns_per_op."+m, "ns/op", float64(prof.Self[m])/float64(tracedOps))
	}
	for _, m := range modules {
		set("host_cum_ns_per_op."+m, "ns/op", float64(prof.Cum[m])/float64(tracedOps))
	}
	set("trace_overhead", "ratio",
		median(plain, (*roundResult).hostKops)/median(withTrace, (*roundResult).hostKops))
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", w.name, seed))
		if err := tr.writeFile(path, map[string]any{"workload": w.name, "seed": seed, "ops": tracedOps, "profile": prof}); err != nil {
			fail("writing trace: %v", err)
		} else {
			fmt.Println("spans and profile attribution written to", path)
		}
	}
	return res
}

// diffVirtual names the virtual figures that differ between two rounds.
func diffVirtual(a, b map[string]float64) string {
	var diff []string
	for k, v := range a {
		if bv, ok := b[k]; !ok || math.Float64bits(bv) != math.Float64bits(v) {
			diff = append(diff, fmt.Sprintf("%s %v vs %v", k, v, b[k]))
		}
	}
	if len(diff) == 0 {
		return ""
	}
	sort.Strings(diff)
	if len(diff) > 4 {
		diff = append(diff[:4], fmt.Sprintf("and %d more", len(diff)-4))
	}
	return fmt.Sprint(diff)
}

func median(rs []*roundResult, f func(*roundResult) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
