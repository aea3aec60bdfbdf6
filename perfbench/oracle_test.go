package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"viyojit"
)

// The oracle is not vacuous: a model entry that disagrees with what was
// acknowledged, a read value with one flipped bit, a value stored under
// the wrong version and a missing record are each reported.
func TestOracleReportsFailures(t *testing.T) {
	in := makeInputs(7, 0.5, 100)
	sys, err := newSystem(roomyBudgetPages, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	store, err := load(sys, in, make([]byte, valueBytes))
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(in)
	if err := m.verifyAll(store.Get); err != nil {
		t.Fatalf("correct store reported as failing: %v", err)
	}

	const rec = 42
	m.version[rec]++
	if err := m.verifyAll(store.Get); err == nil || !strings.Contains(err.Error(), "record 42 ") {
		t.Fatalf("perturbed model entry not reported: %v", err)
	}
	m.version[rec]--

	got, ok, err := store.Get(in.keys[rec])
	if err != nil {
		t.Fatal(err)
	}
	got[valueBytes/2] ^= 1
	if err := m.check(rec, got, ok); err == nil {
		t.Fatal("corrupted read value not reported")
	}
	if err := m.check(rec, nil, false); err == nil {
		t.Fatal("missing record not reported")
	}

	if err := store.Put(in.keys[rec], in.valueFor(make([]byte, valueBytes), rec, 3)); err != nil {
		t.Fatal(err)
	}
	if err := m.verifyAll(store.Get); err == nil {
		t.Fatal("value at an unacknowledged version not reported")
	}
}

// The property checks reject a flush that overdrew the battery and a
// dirty set above its budget.
func TestPropertyChecks(t *testing.T) {
	report := func(survived bool, used float64) viyojit.PowerFailReport {
		return viyojit.PowerFailReport{Survived: survived, EnergyUsedJoules: used, EnergyAvailableJoules: 2}
	}
	if err := checkPowerFail(report(true, 1)); err != nil {
		t.Fatal(err)
	}
	if err := checkPowerFail(report(true, 3)); err == nil {
		t.Fatal("flush above available energy not reported")
	}
	if err := checkPowerFail(report(false, 1)); err == nil {
		t.Fatal("failed flush not reported")
	}
	if checkDirtyBound(902, 901) == nil || checkDirtyBound(901, 901) != nil {
		t.Fatal("dirty bound check wrong")
	}
	if checkRestore(1) == nil || checkRestore(0) != nil {
		t.Fatal("restore check wrong")
	}
}

// Two rounds of one seed give bit-identical virtual figures, on the
// closed-loop store and through the front-end.
func TestRoundsRepeatExactly(t *testing.T) {
	for _, w := range []workload{
		{name: "kv", readFrac: 0.5, budget: tightBudgetPages, ops: 1500},
		{name: "serve", readFrac: 0.5, budget: tightBudgetPages, serve: true, ops: 1500, rate: 20000},
	} {
		run := runKV
		if w.serve {
			run = runServe
		}
		a, err := run(w, 3, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := run(w, 3, newTracer())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if d := diffVirtual(a.virt, b.virt); d != "" {
			t.Fatalf("%s: rounds differ: %s", w.name, d)
		}
		if a.failed != 0 || a.attempted != warmOps+w.ops || a.samples != w.ops {
			t.Fatalf("%s: attempted %d failed %d", w.name, a.attempted, a.failed)
		}
	}
}

// Profile attribution charges a busy benchmark function to "bench".
func TestAttributeChargesModules(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = mix64(x)
		}
	}
	pprof.StopCPUProfile()
	mt, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if mt.Self["bench"] == 0 || mt.Cum["bench"] < mt.Self["bench"] {
		t.Fatalf("busy loop not charged to bench: %+v (x=%d)", mt, x)
	}
	for fn, want := range map[string]string{
		"viyojit/internal/ssd.(*SSD).DurablePageList": "ssd",
		"viyojit/internal/wal.Append":                 "other",
		"viyojit.(*System).Pump":                      "facade",
		"main.runKV":                                  "bench",
		"sort.Slice":                                  "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
