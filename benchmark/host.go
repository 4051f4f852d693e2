package main

import (
	"sync"
	"time"
)

// The reference host.
//
// The benchmark runs on a shared two-CPU guest whose memory system slows by
// up to 1.7x for minutes at a time while its arithmetic stays within 5 %
// (README, "Sizing"): the same commit measured 32 000 and 47 000 ops/s half
// an hour apart, every timed metric moving together. No amount of measuring
// inside a run averages that out. So before every slice the workers do a
// fixed piece of work of the benchmark's own — hostKernel — and every time
// the slice measures is multiplied by hostNominal over the time the kernel
// took: the slice's times are the ones it would have taken on the reference
// host in its quiet state. The factor is kept with every slice, so what the
// clock said is always the reported time divided by it.
//
// The kernel runs none of the program's code, so a change to the program
// cannot move it. It does what the program's operations do — insert into
// and delete from a map of small freshly allocated nodes, walk their chains,
// and hash integers — in the proportion (about two parts memory to one part
// arithmetic, by time) at which the six workloads slowed with it over the
// measurements in the README.

// hostNominal is the kernel's time on the reference host when it is quiet.
const hostNominal = 3500 * time.Microsecond

type hostNode struct {
	key  uint64
	next *hostNode
}

func hostWork(seed uint64) uint64 {
	const (
		inserts = 40000
		buckets = 2048
		hashes  = 1 << 19
	)
	m := make(map[uint64]*hostNode, buckets/2)
	h := 1469598103934665603 + seed
	for n := uint64(0); n < inserts; n++ {
		h = (h ^ n) * 1099511628211
		k := (h >> 20) % buckets
		m[k] = &hostNode{key: h, next: m[k]}
		if n%8 == 7 {
			delete(m, (h>>40)%buckets)
		}
	}
	var s uint64
	for _, nd := range m {
		for ; nd != nil; nd = nd.next {
			s += nd.key
		}
	}
	for n := uint64(0); n < hashes; n++ {
		h = (h ^ n) * 1099511628211
		h ^= h >> 29
	}
	return s + h
}

var hostSink uint64 // keeps the compiler from dropping the work

// hostFactor has as many goroutines as the suite has workers do the kernel
// at once, as the workers of a slice share the host, and returns hostNominal
// over the slowest one's time. A one-worker slice of the ladder is scaled by
// the same measurement, so the rungs stay comparable.
func hostFactor() float64 {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var slowest time.Duration
	for t := 0; t < workers(); t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			s := hostWork(uint64(t))
			d := time.Since(t0)
			mu.Lock()
			slowest = max(slowest, d)
			hostSink += s
			mu.Unlock()
		}()
	}
	wg.Wait()
	return float64(hostNominal) / float64(slowest)
}
