package stm

import (
	"testing"
	"time"
)

// fakeTx is a TxInfo stub for contention-manager unit tests.
type fakeTx struct {
	opens uint64
}

func (f fakeTx) Opens() uint64 { return f.opens }

func TestPolkaDecisions(t *testing.T) {
	cm := Polka{}
	me := fakeTx{opens: 10}
	enemy := fakeTx{opens: 13}
	// Enemy has invested 3 more opens: wait for attempts 0..3, then kill.
	for attempt := 0; attempt <= 3; attempt++ {
		if d := cm.OnConflict(me, enemy, attempt); d != Wait {
			t.Errorf("attempt %d: decision = %v, want wait", attempt, d)
		}
	}
	if d := cm.OnConflict(me, enemy, 4); d != AbortEnemy {
		t.Errorf("attempt 4: decision = %v, want abort-enemy", d)
	}
	// If we out-invest the enemy, kill on the second encounter.
	richMe := fakeTx{opens: 100}
	if d := cm.OnConflict(richMe, enemy, 1); d != AbortEnemy {
		t.Errorf("rich me attempt 1: decision = %v, want abort-enemy", d)
	}
	if d := cm.OnConflict(richMe, enemy, 0); d != Wait {
		t.Errorf("rich me attempt 0: decision = %v, want wait", d)
	}
}

func TestTimidDecisions(t *testing.T) {
	if d := (Timid{}).OnConflict(fakeTx{}, fakeTx{opens: 100}, 0); d != AbortSelf {
		t.Errorf("timid = %v, want abort-self", d)
	}
}

func TestBackoffDurationGrowsAndIsCapped(t *testing.T) {
	prevMax := time.Duration(0)
	for attempt := 0; attempt <= 20; attempt++ {
		d := backoffDur(attempt, 12345)
		if d < 0 {
			t.Fatalf("negative backoff at attempt %d", attempt)
		}
		if d > 10*time.Millisecond {
			t.Fatalf("backoff too large at attempt %d: %v", attempt, d)
		}
		if attempt <= 16 && d > prevMax {
			prevMax = d
		}
	}
	if prevMax < 10*time.Microsecond {
		t.Errorf("backoff never grew: max %v", prevMax)
	}
}

func TestDecisionString(t *testing.T) {
	cases := map[Decision]string{
		Wait:         "wait",
		AbortEnemy:   "abort-enemy",
		AbortSelf:    "abort-self",
		Decision(99): "unknown",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestManagerNames(t *testing.T) {
	names := map[string]ContentionManager{
		"polka": Polka{},
		"timid": Timid{},
	}
	for want, cm := range names {
		if cm.Name() != want {
			t.Errorf("Name() = %q, want %q", cm.Name(), want)
		}
	}
}

func TestSpinWait(t *testing.T) {
	start := time.Now()
	spinWait(0)
	spinWait(-time.Nanosecond)
	spinWait(5 * time.Microsecond)  // spin path
	spinWait(50 * time.Microsecond) // sleep path
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("spinWait took unreasonably long: %v", elapsed)
	}
}
