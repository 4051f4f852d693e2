package stm

import (
	"sync"
	"testing"
)

// TestGVClockSingleShardIsClassic: one shard behaves exactly like the old
// fetch-and-add clock — unique, gapless, even stamps.
func TestGVClockSingleShardIsClassic(t *testing.T) {
	var c gvClock
	c.init(1)
	if c.sharded() {
		t.Fatal("1 shard reported as sharded")
	}
	for want := uint64(2); want <= 20; want += 2 {
		if got := c.tick(7); got != want {
			t.Fatalf("tick = %d, want %d", got, want)
		}
	}
	if got := c.read(); got != 20 {
		t.Errorf("read = %d, want 20", got)
	}
}

func TestGVClockShardRounding(t *testing.T) {
	var c gvClock
	c.init(3)
	if sh, _ := c.spread(); sh != 4 {
		t.Errorf("3 shards rounded to %d, want 4", sh)
	}
	var z gvClock
	z.init(0)
	if sh, _ := z.spread(); sh != 1 {
		t.Errorf("0 shards gave %d, want 1", sh)
	}
}

// TestGVClockMonotonicProperty is the satellite's monotonicity property
// test, for every shard count: (1) stamps issued by one goroutine strictly
// increase, (2) concurrent read() samples never decrease, (3) every stamp
// is even and positive, (4) after quiescence read() equals the maximum
// stamp ever issued.
func TestGVClockMonotonicProperty(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(map[bool]string{true: "sharded", false: "single"}[shards > 1], func(t *testing.T) {
			var c gvClock
			c.init(shards)

			const goroutines = 8
			ticks := stressIters(t, 5000)

			maxStamps := make([]uint64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var last uint64
					for i := 0; i < ticks; i++ {
						wv := c.tick(uint64(g))
						if wv&1 != 0 || wv == 0 {
							t.Errorf("goroutine %d: stamp %d not even/positive", g, wv)
							return
						}
						if wv <= last {
							t.Errorf("goroutine %d: stamp %d after %d (own-shard monotonicity broken)", g, wv, last)
							return
						}
						last = wv
					}
					maxStamps[g] = last
				}(g)
			}
			// A sampler thread checks global reads never run backwards.
			samplerDone := make(chan struct{})
			go func() {
				defer close(samplerDone)
				var last uint64
				for i := 0; i < ticks; i++ {
					v := c.read()
					if v < last {
						t.Errorf("read() went backwards: %d after %d", v, last)
						return
					}
					last = v
				}
			}()
			wg.Wait()
			<-samplerDone

			var maxIssued uint64
			for _, s := range maxStamps {
				if s > maxIssued {
					maxIssued = s
				}
			}
			if got := c.read(); got != maxIssued {
				t.Errorf("quiescent read() = %d, want max issued stamp %d", got, maxIssued)
			}
			sh, gap := c.spread()
			if int(sh) != maxPow2(shards) {
				t.Errorf("spread shards = %d, want %d", sh, maxPow2(shards))
			}
			if shards == 1 && gap != 0 {
				t.Errorf("single-shard spread gap = %d, want 0", gap)
			}
		})
	}
}

func maxPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// TestGVClockTickAdvancesPastRead: a stamp is always strictly newer than
// any read taken before the tick — property 1 of the TL2 argument.
func TestGVClockTickAdvancesPastRead(t *testing.T) {
	var c gvClock
	c.init(4)
	for i := 0; i < 1000; i++ {
		before := c.read()
		wv := c.tick(uint64(i))
		if wv <= before {
			t.Fatalf("tick %d not past prior read %d", wv, before)
		}
	}
}

// TestTL2ShardedClockStats: the engine reports shard count and spread
// through Stats, and Delta carries the snapshot values through.
func TestTL2ShardedClockStats(t *testing.T) {
	eng := NewTL2With(TL2Config{EngineOptions: opts("shards=4")})
	before := eng.Stats()
	if before.ClockShards != 4 {
		t.Fatalf("ClockShards = %d, want 4", before.ClockShards)
	}
	c := NewCell(eng.VarSpace(), 0)
	for i := 0; i < 10; i++ {
		if err := eng.Atomic(func(tx Tx) error { c.Set(tx, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	after := eng.Stats()
	d := after.Delta(before)
	if d.ClockShards != 4 {
		t.Errorf("Delta.ClockShards = %d, want 4 (snapshot semantics)", d.ClockShards)
	}
	if d.Commits != 10 {
		t.Errorf("Delta.Commits = %d, want 10", d.Commits)
	}
	// All commits came from one descriptor, i.e. one shard: the spread is
	// the distance from that shard to the untouched ones.
	if after.ClockShardSpread == 0 {
		t.Error("spread = 0 after 10 single-shard commits, want > 0")
	}
}
