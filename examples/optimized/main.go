// optimized demonstrates §5 of the paper in action: the benchmark run twice
// under the TL2 STM — once with the paper-faithful object layout (documents,
// manual and indexes each a single transactional object) and once with the
// two layout changes the paper sketches as "what one would have to do to use
// an STM well":
//
//   - the manual split into chunks,
//   - atomic-part state grouped per composite part.
//
// §5 also sketches indexes with each B-tree node synchronized separately.
// That layout was measured and left out: it cut the short read-write TL2 mix
// from 112 912 to 79 638 ops/s (×0.71) at seed 42 on a 2-CPU host.
//
// The paper's point is the punchline: the optimized layout is faster, but
// needing it at all "weakens the main selling point of the STM technology —
// namely, that it makes implementing scalable concurrent data structures
// easy."
//
//	go run ./examples/optimized
package main

import (
	"fmt"
	"log"
	"time"

	stmbench7 "repro"
)

func run(name string, params stmbench7.Params) {
	res, err := stmbench7.Run(stmbench7.Options{
		Params:          params,
		Threads:         8,
		Duration:        2 * time.Second,
		Workload:        stmbench7.ReadWrite,
		LongTraversals:  false,
		StructureMods:   true,
		Strategy:        "tl2",
		CheckInvariants: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %10.0f ops/s  (failed ops: %d)\n",
		name, res.Throughput(), res.TotalAttempted()-res.TotalSucceeded())
}

func main() {
	fmt.Println("read-write workload, 8 threads, TL2, long traversals disabled")

	faithful := stmbench7.SmallParams()
	run("paper-faithful layout", faithful)

	optimized := stmbench7.SmallParams()
	optimized.ManualChunks = 8
	optimized.GroupAtomicParts = true
	run("chunked + grouped (§5)", optimized)

	fmt.Println("\nper-optimization breakdown:")
	chunked := stmbench7.SmallParams()
	chunked.ManualChunks = 8
	run("  chunked manual", chunked)

	grouped := stmbench7.SmallParams()
	grouped.GroupAtomicParts = true
	run("  grouped parts", grouped)
}
