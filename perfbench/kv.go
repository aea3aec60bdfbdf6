package main

import (
	"fmt"
	"time"

	"viyojit"
	"viyojit/internal/kvstore"
	"viyojit/internal/sim"
)

// load builds the store on a fresh system and inserts every record at
// version 0.
func load(sys *viyojit.System, in *inputs, buf []byte) (*kvstore.Store, error) {
	store, err := sys.NewStore("store", heapBytes)
	if err != nil {
		return nil, err
	}
	for rec, k := range in.keys {
		if err := store.Put(k, in.valueFor(buf, rec, 0)); err != nil {
			return nil, fmt.Errorf("load record %d: %w", rec, err)
		}
		sys.Pump()
	}
	return store, nil
}

// warmOps requests run before measuring starts, so the figures describe
// the steady state: the dirty set, the TLB and the intent journal have
// left the state the load put them in.
const warmOps = 2000

// runKV is one closed-loop round on the KV store: a single loop
// charges serviceTime of virtual time per request and sends the next
// request when the previous one returns.
func runKV(w workload, seed uint64, tr *tracer) (*roundResult, error) {
	res := &roundResult{virt: map[string]float64{}}
	root := tr.begin(spanRound, -1, -1)
	defer tr.end(root)

	hostStart := time.Now()
	sp := tr.begin(spanSetup, root, -1)
	in := makeInputs(seed, w.readFrac, warmOps+w.ops)
	buf := make([]byte, valueBytes)
	sys, err := newSystem(w.budget, false)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	store, err := load(sys, in, buf)
	if err != nil {
		return nil, err
	}
	m := newModel(in)

	var (
		before    layerSnap
		alloc0    allocCounter
		runStart  time.Time
		vStart    sim.Time
		lat       = make([]int64, w.ops)
		checkErr  error
		acked     int
		opTracer  *tracer // nil during warm-up
		measuring bool
	)
	for i, o := range in.ops {
		if i == warmOps {
			tr.end(sp)
			res.setup = time.Since(hostStart)
			res.peakHeap = liveHeap()
			before = snapLayers(sys, store)
			sp = tr.begin(spanRun, root, -1)
			opTracer, measuring = tr, true
			tr.startProfile()
			alloc0 = readAllocs()
			runStart = time.Now()
			vStart = sys.Now()
		}
		t := sys.Now()
		sys.AdvanceTime(serviceTime)
		rec := int(o.rec)
		if o.write {
			v := m.version[rec] + 1
			s := opTracer.begin(spanPut, sp, int32(i))
			err := store.Put(in.keys[rec], in.valueFor(buf, rec, v))
			opTracer.end(s)
			if err != nil {
				res.failed++
			} else {
				m.version[rec] = v
				if measuring {
					acked++
				}
			}
		} else {
			s := opTracer.begin(spanGet, sp, int32(i))
			got, ok, err := store.Get(in.keys[rec])
			opTracer.end(s)
			if err != nil {
				res.failed++
			} else if err := m.check(rec, got, ok); err != nil && checkErr == nil {
				checkErr = fmt.Errorf("read %d: %w", i, err)
			}
		}
		s := opTracer.begin(spanPump, sp, int32(i))
		sys.Pump()
		opTracer.end(s)
		if !measuring {
			continue
		}
		lat[i-warmOps] = int64(sys.Now().Sub(t))
	}
	elapsed := sys.Now().Sub(vStart)
	res.run = time.Since(runStart)
	alloc1 := readAllocs()
	res.profile = tr.stopProfile()
	tr.end(sp)
	res.attempted = len(in.ops)
	res.allocs, res.allocBytes = alloc1.mallocs-alloc0.mallocs, alloc1.bytes-alloc0.bytes
	if checkErr != nil {
		return res, checkErr
	}

	after := snapLayers(sys, store)
	recordLayers(res.virt, before, after, w.ops)
	recordLatencies(res.virt, lat, elapsed)
	recordKindLatencies(res, in.ops[warmOps:], lat)
	res.virt["ssd.durable_pages"] = float64(len(sys.SSD().DurablePageList()))
	if err := checkDirtyBound(after.mgr.MaxDirtyObserved, w.budget); err != nil {
		return res, err
	}
	res.peakHeap = max(res.peakHeap, liveHeap())

	// Power fails after the last request returned.
	t0 := time.Now()
	sp = tr.begin(spanPowerFail, root, -1)
	pf := sys.SimulatePowerFailure()
	tr.end(sp)
	res.powerfail = time.Since(t0)
	if err := checkPowerFail(pf); err != nil {
		return res, err
	}
	ssdAfter := sys.SSD().Stats().BytesWritten

	t0 = time.Now()
	sp = tr.begin(spanRecover, root, -1)
	rsys, rr, err := sys.Recover()
	tr.end(sp)
	res.recover = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("recover: %w", err)
	}
	defer rsys.Close()
	t0 = time.Now()
	sp = tr.begin(spanReopen, root, -1)
	rstore, err := rsys.OpenStore("store", heapBytes)
	tr.end(sp)
	res.reopen = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("reopen store: %w", err)
	}
	res.peakHeap = max(res.peakHeap, liveHeap())
	recordEnd(res.virt, pf, rr.PagesRestored, rr.Integrity.PagesVerified, rr.RestoreTime,
		ssdAfter-before.dev.BytesWritten, acked*valueBytes)
	if err := checkRestore(len(rr.Integrity.Quarantined)); err != nil {
		return res, err
	}
	sp = tr.begin(spanVerify, root, -1)
	defer tr.end(sp)
	if err := m.verifyAll(rstore.Get); err != nil {
		return res, fmt.Errorf("after recovery: %w", err)
	}
	return res, nil
}
