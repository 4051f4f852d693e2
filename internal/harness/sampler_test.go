package harness

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/stm"
)

// TestSamplerCurve drives a Sampler directly, without the harness: its
// points have strictly increasing timestamps and in-range abort shares, and
// their per-interval commit, op and shed deltas sum to the totals the
// sources reached.
func TestSamplerCurve(t *testing.T) {
	eng, err := stm.New("tl2")
	if err != nil {
		t.Fatal(err)
	}
	c := stm.NewCell(eng.VarSpace(), 0)
	var ops, sheds atomic.Int64

	s := NewSampler(2*time.Millisecond, eng.Stats, ops.Load, sheds.Load)
	s.Start()
	deadline := time.Now().Add(25 * time.Millisecond)
	total := 0
	for time.Now().Before(deadline) {
		if err := eng.Atomic(func(tx stm.Tx) error { c.Set(tx, total); return nil }); err != nil {
			t.Fatal(err)
		}
		ops.Add(1)
		if total%3 == 0 {
			sheds.Add(1)
		}
		total++
	}
	points := s.Stop()

	if len(points) == 0 {
		t.Fatal("sampler returned no points")
	}
	var commits uint64
	var sampledOps, sampledSheds int64
	lastT := 0.0
	for _, p := range points {
		if p.T <= lastT {
			t.Errorf("sample timestamps not strictly increasing: %v after %v", p.T, lastT)
		}
		lastT = p.T
		if p.AbortPct < 0 || p.AbortPct > 100 {
			t.Errorf("AbortPct %v outside [0, 100]", p.AbortPct)
		}
		commits += p.Commits
		sampledOps += p.Ops
		sampledSheds += p.Sheds
	}
	if want := eng.Stats().Commits; commits != want {
		t.Errorf("interval commit deltas sum to %d, cumulative is %d", commits, want)
	}
	if sampledOps != int64(total) {
		t.Errorf("interval op deltas sum to %d, driver completed %d", sampledOps, total)
	}
	if want := sheds.Load(); sampledSheds != want {
		t.Errorf("interval shed deltas sum to %d, driver shed %d", sampledSheds, want)
	}
}
