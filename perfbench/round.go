package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"viyojit"
	"viyojit/internal/health"
	"viyojit/internal/kvstore"
	"viyojit/internal/mmu"
	"viyojit/internal/ssd"
)

// workload is one traffic mix the benchmark runs. README.md gives the
// reason for each.
type workload struct {
	name     string
	readFrac float64
	budget   int     // dirty budget in pages
	serve    bool    // through the serving front-end with exactly-once writes
	ops      int     // measured requests per round
	rate     float64 // open-loop requests per virtual second (serve only)
}

var workloads = []workload{
	// Write working set far above an 11% budget: traps, forced and
	// proactive cleans, SSD writes and the scrub are all busy.
	{name: "kv-a-tight", readFrac: 0.50, budget: tightBudgetPages, ops: 16000},
	// The budget covers the heap: no clean or SSD write while running.
	{name: "kv-b-roomy", readFrac: 0.95, budget: roomyBudgetPages, ops: 60000},
	// The front-end, the intent journal and the flight recorder.
	{name: "serve-a-durable", readFrac: 0.50, budget: tightBudgetPages, serve: true, ops: 32000, rate: 20000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// roundResult is what one round measured.
type roundResult struct {
	// virt holds every virtual-clock figure of the round, end-to-end and
	// per layer. A round replays the same seeded inputs, so all of them
	// must repeat exactly between rounds.
	virt map[string]float64
	// latency sample counts behind the percentiles.
	samples, getSamples, putSamples int

	attempted, failed int

	setup, run, powerfail, recover, reopen time.Duration
	allocs, allocBytes                     uint64
	peakHeap                               uint64
	maxQueue                               int
	profile                                *moduleTimes // traced rounds only
}

// hostKops is the measured requests per host second of the run phase.
func (r *roundResult) hostKops() float64 {
	return float64(r.samples) / r.run.Seconds() / 1000
}

// layerSnap is one reading of every layer's public counters.
type layerSnap struct {
	mgr viyojit.ManagerStats
	mmu mmu.Stats
	dev ssd.Stats
	scr viyojit.ScrubStats
	hl  health.Stats
	kv  kvstore.Stats
}

func snapLayers(sys *viyojit.System, store *kvstore.Store) layerSnap {
	return layerSnap{
		mgr: sys.Stats(),
		mmu: sys.Manager().Region().PageTable().Stats(),
		dev: sys.SSD().Stats(),
		scr: sys.Scrubber().Stats(),
		hl:  sys.Health().Stats(),
		kv:  store.Stats(),
	}
}

// recordLayers stores the run phase's per-layer deltas in virt.
func recordLayers(virt map[string]float64, a, b layerSnap, ops int) {
	n := float64(ops)
	virt["mmu.faults_per_op"] = float64(b.mmu.Faults-a.mmu.Faults) / n
	virt["mmu.tlb_misses_per_op"] = float64(b.mmu.TLBMisses-a.mmu.TLBMisses) / n
	virt["mmu.tlb_flushes"] = float64(b.mmu.TLBFlushes - a.mmu.TLBFlushes)
	virt["mmu.pte_updates_per_op"] = float64(b.mmu.PTEUpdates-a.mmu.PTEUpdates) / n
	virt["core.forced_cleans"] = float64(b.mgr.ForcedCleans - a.mgr.ForcedCleans)
	virt["core.proactive_cleans"] = float64(b.mgr.ProactiveCleans - a.mgr.ProactiveCleans)
	virt["core.fault_wait_us_per_op"] = float64(b.mgr.FaultWaitTotal-a.mgr.FaultWaitTotal) / 1e3 / n
	virt["core.epochs"] = float64(b.mgr.Epochs - a.mgr.Epochs)
	virt["core.max_dirty_pages"] = float64(b.mgr.MaxDirtyObserved)
	virt["ssd.writes"] = float64(b.dev.WritesCompleted - a.dev.WritesCompleted)
	virt["ssd.submit_stalls"] = float64(b.dev.SubmitStalls - a.dev.SubmitStalls)
	virt["ssd.avg_write_latency_us"] = float64(b.dev.AvgWriteLatency()) / 1e3
	virt["scrub.bursts"] = float64(b.scr.Bursts - a.scr.Bursts)
	virt["scrub.pages_scanned"] = float64(b.scr.PagesScanned - a.scr.PagesScanned)
	virt["health.ticks"] = float64(b.hl.Ticks - a.hl.Ticks)
	virt["health.retunes"] = float64(b.hl.Retunes - a.hl.Retunes)
	virt["kvstore.chain_steps_per_op"] = float64(b.kv.ChainSteps-a.kv.ChainSteps) / n
}

// recordLatencies turns per-request virtual latencies into the
// end-to-end percentiles and goodput.
func recordLatencies(virt map[string]float64, lat []int64, elapsed viyojit.Duration) {
	virt["v_goodput_kops"] = float64(len(lat)) / elapsed.Seconds() / 1000
	s := sortedCopy(lat)
	virt["v_p50_us"] = quantile(s, 0.50) / 1e3
	virt["v_p99_us"] = quantile(s, 0.99) / 1e3
	virt["v_p999_us"] = quantile(s, 0.999) / 1e3
}

// recordKindLatencies splits the measured latencies into reads and
// writes for the store's per-kind tails and the sample counts.
func recordKindLatencies(res *roundResult, ops []op, lat []int64) {
	var get, put []int64
	for i, o := range ops {
		if o.write {
			put = append(put, lat[i])
		} else {
			get = append(get, lat[i])
		}
	}
	res.virt["kvstore.get_v_p99_us"] = quantile(sortedCopy(get), 0.99) / 1e3
	res.virt["kvstore.put_v_p99_us"] = quantile(sortedCopy(put), 0.99) / 1e3
	res.samples, res.getSamples, res.putSamples = len(lat), len(get), len(put)
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// recordEnd stores the power-failure and recovery figures.
func recordEnd(virt map[string]float64, pf viyojit.PowerFailReport, restored, verified int, restoreTime viyojit.Duration,
	ssdBytes uint64, ackedBytes int) {
	virt["flush_energy_j"] = pf.EnergyUsedJoules
	virt["powerfail.pages_flushed"] = float64(pf.PagesFlushed)
	virt["powerfail.flush_ms"] = float64(pf.FlushTime) / 1e6
	virt["recover_v_ms"] = float64(restoreTime) / 1e6
	virt["recovery.pages_restored"] = float64(restored)
	virt["recovery.pages_verified"] = float64(verified)
	virt["ssd.bytes_written"] = float64(ssdBytes)
	virt["ssd_write_amp"] = float64(ssdBytes) / float64(ackedBytes)
}

// liveHeap is the live Go heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocCounter brackets the run phase's allocations.
type allocCounter struct{ mallocs, bytes uint64 }

func readAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}
