package main

import (
	"context"
	"fmt"
	"time"

	"viyojit"
	"viyojit/internal/kvstore"
	"viyojit/internal/serve"
	"viyojit/internal/sim"
)

const (
	// serveClients is how many client IDs the generator rotates over,
	// by request index; serveOutstanding bounds requests in flight. Together
	// they keep each client's outstanding sequence numbers (at most
	// serveOutstanding/serveClients) inside the journal's dedup window,
	// and the admission queue far below its shedding bound.
	serveClients     = 8
	serveOutstanding = 64
	journalWindow    = 16
)

// ack is a client's last acknowledged write, retried after recovery.
type ack struct {
	seq     uint64
	rec     int
	version uint64
}

type inflight struct {
	h       *serve.Handle
	due     sim.Time
	rec     int
	write   bool
	version uint64 // written, or expected by a read
	client  uint64
	seq     uint64
}

// openLoop is the serving workload's request generator. It runs on one
// goroutine and checks every result against the model.
type openLoop struct {
	srv       *serve.Server
	in        *inputs
	m         *model
	interval  sim.Duration
	submitted []uint64 // latest version submitted per record
	seqs      []uint64 // last sequence number per client
	last      []ack    // last acknowledged write per client
	ring      []inflight
	failed    int
	checkErr  error
	writes    int // submitted while measuring
	acked     int // acknowledged while measuring
}

func newOpenLoop(srv *serve.Server, in *inputs, m *model, rate float64) *openLoop {
	return &openLoop{
		srv:       srv,
		in:        in,
		m:         m,
		interval:  sim.Duration(1e9 / rate),
		submitted: make([]uint64, in.records),
		seqs:      make([]uint64, serveClients+1),
		last:      make([]ack, serveClients+1),
		ring:      make([]inflight, serveOutstanding),
	}
}

// run submits requests from to to-1 of the op stream, request i due at
// t0 + (i-from+1)*interval where t0 is the server's time when run starts
// (WaitUntil, then SubmitAsync), and waits for every result. When lat is
// non-nil it receives each request's virtual latency, and qwait its
// queue wait, indexed from from. It returns t0 and the completion time
// of the last request.
//
// Latency is measured from the due time. Completion is rebuilt as
// max(previous completion, due) + service, where service = Latency -
// Wait is the in-server time the front-end reports. With one dispatcher
// serving in FIFO order, that is the completion time of the modelled
// open-loop system, and it does not depend on when the generator
// goroutine happened to run.
func (d *openLoop) run(from, to int, tr *tracer, parent int32, lat, qwait []int64) (t0, end sim.Time, err error) {
	ctx := context.Background()
	t0 = d.srv.Now()
	due, prevDone := t0, t0
	collect := func(i int) {
		p := &d.ring[i%serveOutstanding]
		s := tr.begin(spanWait, parent, int32(i))
		r, err := p.h.Wait(ctx)
		tr.end(s)
		p.h = nil
		if err != nil {
			d.failed++
			return
		}
		start := max(prevDone, p.due)
		prevDone = start.Add(r.Latency - r.Wait)
		if lat != nil {
			lat[i-from] = int64(prevDone.Sub(p.due))
			qwait[i-from] = int64(start.Sub(p.due))
		}
		if !p.write {
			got, ok := r.Value.([]byte)
			if err := d.m.checkVersion(p.rec, p.version, got, ok); err != nil && d.checkErr == nil {
				d.checkErr = fmt.Errorf("read %d: %w", i, err)
			}
			return
		}
		if ir, ok := r.Value.(viyojit.IdemResult); !ok || ir.Deduped || ir.Redone {
			if d.checkErr == nil {
				d.checkErr = fmt.Errorf("write %d (client %d seq %d) was not freshly applied: %+v", i, p.client, p.seq, r.Value)
			}
			return
		}
		d.m.version[p.rec] = p.version
		d.last[p.client] = ack{seq: p.seq, rec: p.rec, version: p.version}
		if lat != nil {
			d.acked++
		}
	}

	for i := from; i < to; i++ {
		if i-from >= serveOutstanding {
			collect(i - serveOutstanding)
		}
		due = due.Add(d.interval)
		if err := d.srv.WaitUntil(due); err != nil {
			return t0, prevDone, fmt.Errorf("pacing request %d: %w", i, err)
		}
		o := d.in.ops[i]
		rec := int(o.rec)
		key := d.in.keys[rec]
		p := inflight{due: due, rec: rec, write: o.write}
		var req viyojit.ServeRequest
		if o.write {
			p.client = uint64(i%serveClients) + 1
			d.seqs[p.client]++
			p.seq = d.seqs[p.client]
			d.submitted[rec]++
			p.version = d.submitted[rec]
			if lat != nil {
				d.writes++
			}
			req = viyojit.ServeRequest{
				Priority: viyojit.PriorityNormal, Write: true, ClientID: p.client, RequestSeq: p.seq,
				Idem: &viyojit.IdemOp{Kind: viyojit.IdemPut, Key: key,
					Value: d.in.valueFor(make([]byte, valueBytes), rec, p.version)},
			}
		} else {
			p.version = d.submitted[rec]
			req = viyojit.ServeRequest{Priority: viyojit.PriorityNormal, Op: func(e viyojit.ServeExec) (any, error) {
				v, ok, err := e.Store.Get(key)
				if err != nil || !ok {
					return nil, err
				}
				return v, nil
			}}
		}
		s := tr.begin(spanSubmit, parent, int32(i))
		h, err := d.srv.SubmitAsync(req)
		tr.end(s)
		if err != nil {
			return t0, prevDone, fmt.Errorf("submitting request %d: %w", i, err)
		}
		p.h = h
		d.ring[i%serveOutstanding] = p
	}
	for i := max(from, to-serveOutstanding); i < to; i++ {
		collect(i)
	}
	return t0, prevDone, nil
}

// serveSnap is the layer counters plus the journal's and the flight
// recorder's.
type serveSnap struct {
	layers         layerSnap
	journalBytes   uint64
	bbSeq, bbDrops uint64
}

func snapServe(sys *viyojit.System, store *kvstore.Store, j *viyojit.IntentJournal) serveSnap {
	return serveSnap{
		layers:       snapLayers(sys, store),
		journalBytes: j.Stats().AppendBytes,
		bbSeq:        sys.BlackBox().LastSeq(),
		bbDrops:      uint64(sys.BlackBox().Dropped()),
	}
}

// runServe is one open-loop round through the serving front-end: writes
// are idempotent puts through the intent journal, reads are store
// lookups, and the flight recorder is on.
func runServe(w workload, seed uint64, tr *tracer) (*roundResult, error) {
	res := &roundResult{virt: map[string]float64{}}
	root := tr.begin(spanRound, -1, -1)
	defer tr.end(root)

	hostStart := time.Now()
	sp := tr.begin(spanSetup, root, -1)
	in := makeInputs(seed, w.readFrac, warmOps+w.ops)
	sys, err := newSystem(w.budget, true)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	store, err := load(sys, in, make([]byte, valueBytes))
	if err != nil {
		return nil, err
	}
	j, err := sys.NewIntentJournal("intent", journalBytes, viyojit.IntentConfig{Window: journalWindow})
	if err != nil {
		return nil, err
	}
	m := newModel(in)
	srv, err := sys.Serve(store, viyojit.ServeConfig{Journal: j})
	if err != nil {
		return nil, err
	}
	d := newOpenLoop(srv, in, m, w.rate)
	if _, _, err := d.run(0, warmOps, nil, -1, nil, nil); err != nil {
		return res, err
	}
	// The counters are read on the dispatch goroutine, which owns them
	// while serving; the request costs one service time, the same in
	// every round.
	r, err := srv.Submit(context.Background(), viyojit.ServeRequest{
		Class: viyojit.ClassBackground, Priority: viyojit.PriorityHigh,
		Op: func(viyojit.ServeExec) (any, error) { return snapServe(sys, store, j), nil },
	})
	if err != nil {
		return res, fmt.Errorf("reading counters: %w", err)
	}
	before := r.Value.(serveSnap)
	tr.end(sp)
	res.setup = time.Since(hostStart)
	res.peakHeap = liveHeap()

	lat := make([]int64, w.ops)
	qwait := make([]int64, w.ops)
	sp = tr.begin(spanRun, root, -1)
	tr.startProfile()
	alloc0 := readAllocs()
	runStart := time.Now()
	t0, end, runErr := d.run(warmOps, len(in.ops), tr, sp, lat, qwait)
	res.run = time.Since(runStart)
	alloc1 := readAllocs()
	res.profile = tr.stopProfile()
	tr.end(sp)
	srv.Stop()
	res.attempted, res.failed = len(in.ops), d.failed
	res.allocs, res.allocBytes = alloc1.mallocs-alloc0.mallocs, alloc1.bytes-alloc0.bytes
	if runErr != nil {
		return res, runErr
	}
	if d.checkErr != nil {
		return res, d.checkErr
	}

	st := srv.Stats()
	if st.Shed() != 0 || st.WatchdogTrips != 0 {
		return res, fmt.Errorf("front-end shed %d requests and tripped its watchdog %d times", st.Shed(), st.WatchdogTrips)
	}
	after := snapServe(sys, store, j)
	recordLayers(res.virt, before.layers, after.layers, w.ops)
	recordLatencies(res.virt, lat, end.Sub(t0))
	recordKindLatencies(res, in.ops[warmOps:], lat)
	res.virt["ssd.durable_pages"] = float64(len(sys.SSD().DurablePageList()))
	res.virt["serve.queue_wait_p99_us"] = quantile(sortedCopy(qwait), 0.99) / 1e3
	res.virt["intent.append_bytes_per_write"] = float64(after.journalBytes-before.journalBytes) / float64(d.writes)
	res.virt["blackbox.appends"] = float64(after.bbSeq - before.bbSeq)
	res.virt["blackbox.drops"] = float64(after.bbDrops - before.bbDrops)
	// The queue's high-water mark depends on how far the generator ran
	// ahead of the dispatcher, which is host scheduling, not the model.
	res.maxQueue = st.MaxQueueObserved
	if err := checkDirtyBound(after.layers.mgr.MaxDirtyObserved, w.budget); err != nil {
		return res, err
	}
	res.peakHeap = max(res.peakHeap, liveHeap())

	t1 := time.Now()
	sp = tr.begin(spanPowerFail, root, -1)
	pf := sys.SimulatePowerFailure()
	tr.end(sp)
	res.powerfail = time.Since(t1)
	if err := checkPowerFail(pf); err != nil {
		return res, err
	}
	ssdAfter := sys.SSD().Stats().BytesWritten

	t1 = time.Now()
	sp = tr.begin(spanRecover, root, -1)
	rsys, rr, err := sys.Recover()
	tr.end(sp)
	res.recover = time.Since(t1)
	if err != nil {
		return res, fmt.Errorf("recover: %w", err)
	}
	defer rsys.Close()
	t1 = time.Now()
	sp = tr.begin(spanReopen, root, -1)
	rstore, rj, pending, err := reopen(rsys)
	tr.end(sp)
	res.reopen = time.Since(t1)
	if err != nil {
		return res, err
	}
	res.peakHeap = max(res.peakHeap, liveHeap())
	recordEnd(res.virt, pf, rr.PagesRestored, rr.Integrity.PagesVerified, rr.RestoreTime,
		ssdAfter-before.layers.dev.BytesWritten, d.acked*valueBytes)
	if err := checkRestore(len(rr.Integrity.Quarantined)); err != nil {
		return res, err
	}
	if pending != 0 {
		return res, fmt.Errorf("recovery redid %d intents, but every write was acknowledged before the failure", pending)
	}
	sp = tr.begin(spanVerify, root, -1)
	defer tr.end(sp)
	if err := m.verifyAll(rstore.Get); err != nil {
		return res, fmt.Errorf("after recovery: %w", err)
	}
	return res, checkExactlyOnce(rsys, rstore, rj, in, m, d.last)
}

// reopen re-attaches the store and the journal in creation order and
// resolves any intent left in flight.
func reopen(rsys *viyojit.System) (*kvstore.Store, *viyojit.IntentJournal, int, error) {
	rstore, err := rsys.OpenStore("store", heapBytes)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reopen store: %w", err)
	}
	rj, err := rsys.OpenIntentJournal("intent", journalBytes)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reopen journal: %w", err)
	}
	n, err := rsys.ReplayPending(rstore, rj)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("replay pending intents: %w", err)
	}
	return rstore, rj, n, nil
}

// checkExactlyOnce retries every client's last acknowledged write on
// the recovered system: each retry must be answered from the journal
// (Deduped) and leave the record at its acknowledged version.
func checkExactlyOnce(rsys *viyojit.System, rstore *kvstore.Store, rj *viyojit.IntentJournal, in *inputs, m *model, last []ack) error {
	if _, err := rsys.Serve(rstore, viyojit.ServeConfig{Journal: rj}); err != nil {
		return err
	}
	ctx := context.Background()
	buf := make([]byte, valueBytes)
	for client := uint64(1); client < uint64(len(last)); client++ {
		a := last[client]
		if a.seq == 0 {
			continue
		}
		key := in.keys[a.rec]
		op := viyojit.IdemOp{Kind: viyojit.IdemPut, Key: key, Value: in.valueFor(buf, a.rec, a.version)}
		r, err := rsys.SubmitIdempotent(ctx, client, a.seq, op, viyojit.ServeRequest{Priority: viyojit.PriorityNormal})
		if err != nil {
			return fmt.Errorf("retry of client %d seq %d: %w", client, a.seq, err)
		}
		if !r.Deduped {
			return fmt.Errorf("retry of acknowledged client %d seq %d was applied again", client, a.seq)
		}
		got, err := rsys.Submit(ctx, viyojit.ServeRequest{Priority: viyojit.PriorityNormal, Op: func(e viyojit.ServeExec) (any, error) {
			v, ok, err := e.Store.Get(key)
			if err != nil || !ok {
				return nil, err
			}
			return v, nil
		}})
		if err != nil {
			return fmt.Errorf("read after retry of client %d seq %d: %w", client, a.seq, err)
		}
		v, ok := got.Value.([]byte)
		if err := m.check(a.rec, v, ok); err != nil {
			return fmt.Errorf("after retry of client %d seq %d: %w", client, a.seq, err)
		}
	}
	return nil
}
