package stm

import "unsafe"

// Multi-version value chains (versioned NOrec cells).
//
// NOrec's snapshot mode restarts a read-only attempt whenever it cannot
// prove its sampled snapshot current: a reader that sees the global
// sequence lock move discards the whole traversal — exactly the
// long-traversal-vs-writer regime STMBench7 §5 stresses. The multi-version
// read path removes those restarts by paying space for them, in the
// Kuznetsov/Ravi "Progressive Transactional Memory in Time and Space"
// line: keep the last K committed versions per Var and let an invisible
// reader resolve the version matching its snapshot timestamp instead of
// retrying.
//
// Representation. Versions form an immutable singly linked chain through
// box.prev, newest first, strictly descending in box.wv. A committing
// writer allocates the same one box per written Var it always did; under
// Versions > 1 it additionally links the superseded head behind the new
// box and truncates the chain to K nodes before publishing. K = 1 (the
// default) never links — commit writeback and the snapshot read path are
// bit-for-bit today's single-version behavior.
//
// Why a resolved old version is opaque: commits are totally ordered by
// the sequence lock, and a writer completes writeback before publishing
// seq = snapshot+2 (a release store the reader's even sample acquires). A
// reader with snapshot time S therefore sees every box with wv <= S in
// each chain it loads, and newer in-flight boxes (wv > S) are skipped by
// the walk — so the per-read epoch check that restarted the whole attempt
// on ANY commit is simply dropped under Versions > 1.
//
// Retention and liveness. A chain is truncated to K nodes at commit time,
// so a reader whose timestamp has fallen off the chain observes a nil
// prev mid-walk, counts a VersionMiss, and restarts the attempt (the
// snapshot loop's existing budget and validating fallback bound the
// cost). Truncation races with concurrent walkers by construction: prev
// only ever changes old-head -> nil, so a racing walk either resolves
// before the cut or misses and restarts — it never observes a torn or
// reordered chain.
//
// Space bound. Linking retains boxes that would otherwise be garbage:
// at most K-1 superseded boxes per live Var, i.e. (K-1) * liveVars *
// sizeof(box) bytes instantaneous, plus whatever user values those boxes
// pin. Stats.VersionBytes counts the cumulative retained box bytes so
// sweeps can report the space side of the trade.
//
// Scope. Only NOrec's read-only snapshot path (RunReadOnly) consults
// older versions; its validating Atomic path is unchanged, and the other
// engines ignore Versions.

// DefaultVersions is the version-chain depth used when Versions is left
// zero: single-version, today's behavior.
const DefaultVersions = 1

// maxVersions bounds the per-Var chain depth; deeper retention than this
// costs space on every write for snapshots too stale to be worth serving.
const maxVersions = 64

// normalizeVersions resolves a requested chain depth: defaulted and
// clamped.
func normalizeVersions(k int) int {
	if k <= 1 {
		return DefaultVersions
	}
	if k > maxVersions {
		return maxVersions
	}
	return k
}

// boxBytes is the retained size of one superseded version (the chain node
// itself, not the user value it pins), the unit of Stats.VersionBytes.
const boxBytes = uint64(unsafe.Sizeof(box{}))

// publishVersion makes nb the new head of v's value chain. Under keep > 1
// the superseded head is linked behind nb and the chain truncated to keep
// nodes; keep == 1 is exactly the plain single-version store. Callers own
// the Var's write synchronization (NOrec holds the sequence lock), so the
// load-link-store on the head does not race other writers — only readers,
// which see either head.
func publishVersion(v *Var, nb *box, keep int, st *txStats) {
	if keep > 1 {
		nb.prev.Store(v.cur.Load())
		st.versionBytes += boxBytes
		// Truncate: cut the chain after its keep-th node (nb is node 1).
		n := nb
		for i := 1; i < keep && n != nil; i++ {
			n = n.prev.Load()
		}
		if n != nil {
			n.prev.Store(nil)
		}
	}
	v.cur.Store(nb)
}

// resolveVersion walks the chain from head for the newest version at or
// before timestamp at. nil means the chain was truncated past at (the
// caller restarts the snapshot attempt).
func resolveVersion(head *box, at uint64) *box {
	for b := head; b != nil; b = b.prev.Load() {
		if b.wv <= at {
			return b
		}
	}
	return nil
}
