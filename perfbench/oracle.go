package main

import (
	"bytes"
	"fmt"

	"viyojit"
)

// model is the benchmark's own record of what the store must hold: the
// last acknowledged version of every record. It never consults the
// program's state, only the requests the benchmark sent and the
// acknowledgements it received.
type model struct {
	in      *inputs
	version []uint64
	buf     []byte
}

func newModel(in *inputs) *model {
	return &model{in: in, version: make([]uint64, in.records), buf: make([]byte, valueBytes)}
}

// check reports whether a read of record rec returned its full value
// pattern at the model's version.
func (m *model) check(rec int, got []byte, ok bool) error {
	return m.checkVersion(rec, m.version[rec], got, ok)
}

// checkVersion reports whether a read of record rec returned its full
// value pattern at version v.
func (m *model) checkVersion(rec int, v uint64, got []byte, ok bool) error {
	if !ok {
		return fmt.Errorf("record %d (%s): missing", rec, m.in.keys[rec])
	}
	if !bytes.Equal(got, m.in.valueFor(m.buf, rec, v)) {
		return fmt.Errorf("record %d (%s): value is not version %d", rec, m.in.keys[rec], v)
	}
	return nil
}

// verifyAll reads every record through get and checks it.
func (m *model) verifyAll(get func(key []byte) ([]byte, bool, error)) error {
	for rec, k := range m.in.keys {
		got, ok, err := get(k)
		if err != nil {
			return fmt.Errorf("record %d (%s): %w", rec, k, err)
		}
		if err := m.check(rec, got, ok); err != nil {
			return err
		}
	}
	return nil
}

// checkPowerFail asserts the method's durability contract: the flush of
// the dirty set finished within the energy the battery held.
func checkPowerFail(r viyojit.PowerFailReport) error {
	if !r.Survived || r.EnergyUsedJoules > r.EnergyAvailableJoules {
		return fmt.Errorf("power-fail flush of %d pages used %.4f J of %.4f J (survived=%v)",
			r.PagesFlushed, r.EnergyUsedJoules, r.EnergyAvailableJoules, r.Survived)
	}
	return nil
}

// checkDirtyBound asserts the dirty set never exceeded the budget.
func checkDirtyBound(maxDirty, budget int) error {
	if maxDirty > budget {
		return fmt.Errorf("dirty set reached %d pages, budget is %d", maxDirty, budget)
	}
	return nil
}

// checkRestore asserts the recovery restored every durable page intact.
func checkRestore(quarantined int) error {
	if quarantined != 0 {
		return fmt.Errorf("recovery quarantined %d pages", quarantined)
	}
	return nil
}
