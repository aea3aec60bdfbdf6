package main

import (
	"fmt"

	"viyojit"
	"viyojit/internal/power"
	"viyojit/internal/sim"
)

// Stack geometry shared by every workload.
const (
	regionBytes  = 64 << 20
	heapBytes    = 32 << 20
	pageBytes    = 4096
	heapPages    = heapBytes / pageBytes
	journalBytes = 1 << 20
	// serviceTime is the virtual cost charged per request around the
	// store (network, parsing, dispatch); the serving front-end charges
	// the same by default.
	serviceTime = 20 * sim.Microsecond
	// tightBudgetPages is the paper's 11 % dirty budget, taken of the
	// heap the workloads write.
	tightBudgetPages = heapPages * 11 / 100
	// roomyBudgetPages covers the whole region: no write ever waits.
	roomyBudgetPages = regionBytes / pageBytes
	// flushReserveSeconds mirrors the fixed flush-overhead allowance the facade
	// reserves before converting joules into pages.
	flushReserveSeconds = 500e-6
	ssdWriteBandwidth   = 2 << 30
	bandwidthDerating   = 0.8
	depthOfDischarge    = 0.5
)

// batteryFor provisions a battery whose derived dirty budget is pages:
// the inverse of the facade's joules → pages derivation, with half a
// page of slack so round-off cannot lose the last page.
func batteryFor(pages int) viyojit.BatteryConfig {
	bw := ssdWriteBandwidth * bandwidthDerating
	seconds := (float64(pages)+0.5)*pageBytes/bw + flushReserveSeconds
	joules := power.Default().FlushWatts(regionBytes) * seconds
	return viyojit.BatteryConfig{
		CapacityJoules:   joules / depthOfDischarge,
		DepthOfDischarge: depthOfDischarge,
		Derating:         1,
	}
}

// newSystem builds the full stack with a battery sized for budgetPages,
// and checks that the facade derived exactly that budget.
func newSystem(budgetPages int, blackBox bool) (*viyojit.System, error) {
	sys, err := viyojit.New(viyojit.Config{
		NVDRAMSize:        regionBytes,
		PageSize:          pageBytes,
		Battery:           batteryFor(budgetPages),
		SSD:               viyojit.SSDConfig{WriteBandwidth: ssdWriteBandwidth},
		BandwidthDerating: bandwidthDerating,
		BlackBox:          blackBox,
	})
	if err != nil {
		return nil, err
	}
	if got := sys.DirtyBudget(); got != budgetPages {
		sys.Close()
		return nil, fmt.Errorf("battery provisioned for %d dirty pages, facade derived %d", budgetPages, got)
	}
	return sys, nil
}
