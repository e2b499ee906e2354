// Package testutil provides shared test helpers. The leak-accounting
// helpers here assert that recycling pools end a test where they started:
// every gauge is a closure over some Outstanding()-style counter, so the
// package stays import-cycle-free (internal tests living in package core can
// hand it core gauges without testutil importing core).
package testutil

import "testing"

// Gauge is one named leak counter: Read reports how many resources are
// currently checked out (vended minus returned). A balanced workload leaves
// a gauge where it found it.
type Gauge struct {
	Name string
	Read func() int64
}

// Baseline is a snapshot of a gauge set, captured before the workload under
// test runs.
type Baseline struct {
	gauges []Gauge
	before []int64
}

// Capture records the gauges' current values. Call before the workload, then
// Assert after it (and after every recycle call the workload owes).
func Capture(gauges ...Gauge) *Baseline {
	b := &Baseline{gauges: gauges, before: make([]int64, len(gauges))}
	for i, g := range gauges {
		b.before[i] = g.Read()
	}
	return b
}

// Assert fails the test for every gauge that drifted from its captured
// value — resources vended during the workload that never came back.
func (b *Baseline) Assert(t testing.TB) {
	t.Helper()
	for i, g := range b.gauges {
		if now := g.Read(); now != b.before[i] {
			t.Errorf("leak: gauge %s = %d, was %d before the workload (%+d outstanding)",
				g.Name, now, b.before[i], now-b.before[i])
		}
	}
}
