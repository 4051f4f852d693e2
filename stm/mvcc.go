package stm

import (
	"sync/atomic"
	"unsafe"
)

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
// Representation. A version is a vbox: the box it publishes, the commit
// stamp wv and the link prev to the next older version. Versions form an
// immutable singly linked chain through prev, newest first, strictly
// descending in wv, and the Var's ver word (its cache line's last 8
// bytes) holds the head, whose box is the one cur publishes. Only a NOrec
// engine with Versions > 1 makes vboxes: its clones and Cell.Set make a
// cell's value inside one (versionedValueBox), so a versioned write is
// still one allocation, and its commit links the superseded head behind
// the new one and truncates the chain to K nodes before publishing. Every
// other configuration publishes plain 16-byte boxes, leaves ver nil, and
// neither stamps nor links anything.
//
// A Var's first versioned commit finds ver nil: the box the Var was made
// with has no stamp. The commit wraps that value in a vbox stamped 0 —
// older than every snapshot — and links it behind the new head, one
// allocation per Var over its lifetime. A reader loads cur before ver,
// and a commit stores ver before cur, so a reader that finds ver nil has
// loaded the box the Var was made with.
//
// Why a resolved old version is opaque: commits are totally ordered by
// the sequence lock, and a writer completes writeback before publishing
// seq = snapshot+2 (a release store the reader's even sample acquires). A
// reader with snapshot time S therefore sees every vbox with wv <= S in
// each chain it loads, and newer in-flight ones (wv > S) are skipped by
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
// Space bound. Linking retains vboxes that would otherwise be garbage: at
// most K-1 superseded versions per live Var, i.e. (K-1) * liveVars
// instantaneous, each with the cell value allocated beside it, plus
// whatever that value points to. Stats.VersionBytes counts the cumulative
// retained sizeof(vbox) bytes so sweeps can report the space side of the
// trade. A *T a reader holds pins its vbox and so that vbox's chain: at
// most K versions, until truncation cuts the chain behind it.
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

// vbox is one version on a Var's chain: the box that publishes it, the
// commit stamp, and the next older version. box comes first, so the box
// cur publishes and the vbox ver holds are one address.
type vbox struct {
	box
	// wv is the commit timestamp of the write that published this
	// version, NOrec's post-commit sequence value; 0 for the value the Var
	// was made with. Immutable once published.
	wv   uint64
	prev atomic.Pointer[vbox]
}

// boxBytes is the size of one retained version (not the value allocated
// beside it), the unit of Stats.VersionBytes.
const boxBytes = uint64(unsafe.Sizeof(vbox{}))

// versionable returns the vbox a versioned commit publishes val in: vb, the
// private one val was made in, when it still holds val, and a fresh one when
// val came from a plain Write or an Update callback replaced it — the
// versioned publishable.
func versionable(vb *vbox, val any) *vbox {
	if vb == nil || !sameValue(vb.val, val) {
		return &vbox{box: box{val: val}}
	}
	return vb
}

// publishVersion stamps nb with wv and makes it the head of v's chain,
// linking the superseded head behind it and truncating the chain to keep
// nodes. Callers own the Var's write synchronization (NOrec holds the
// sequence lock), so the load-link-store on the head does not race other
// writers — only readers, which see either head.
func publishVersion(v *Var, nb *vbox, wv uint64, keep int, st *txStats) {
	nb.wv = wv
	old := v.ver.Load()
	if old == nil {
		// The Var's first versioned commit: its initial value becomes a
		// version older than every snapshot.
		old = &vbox{box: box{val: v.cur.Load().val}}
	}
	nb.prev.Store(old)
	st.versionBytes += boxBytes
	// Truncate: cut the chain after its keep-th node (nb is node 1).
	n := nb
	for i := 1; i < keep && n != nil; i++ {
		n = n.prev.Load()
	}
	if n != nil {
		n.prev.Store(nil)
	}
	v.ver.Store(nb) // before cur: see Representation
	v.cur.Store(&nb.box)
}

// resolveVersion walks the chain from head for the newest version at or
// before timestamp at. nil means the chain was truncated past at (the
// caller restarts the snapshot attempt).
func resolveVersion(head *vbox, at uint64) *vbox {
	for b := head; b != nil; b = b.prev.Load() {
		if b.wv <= at {
			return b
		}
	}
	return nil
}
