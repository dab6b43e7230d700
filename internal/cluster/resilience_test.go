package cluster

import (
	"sync"
	"testing"
	"time"

	"tsgraph/internal/obs"
)

// TestBackoffSchedule verifies the exponential-with-equal-jitter contract:
// delay n is uniform in [d/2, d] with d = min(Cap, Base·2ⁿ), and the cap is
// never exceeded no matter how many attempts pile up.
func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name string
		base,
		cap time.Duration
		attempts int
	}{
		{"short-ramp", 10 * time.Millisecond, 2 * time.Second, 12},
		{"cap-equals-base", 50 * time.Millisecond, 50 * time.Millisecond, 6},
		{"cap-below-base-clamps", 80 * time.Millisecond, 20 * time.Millisecond, 4},
		{"long-tail-stays-capped", 1 * time.Millisecond, 64 * time.Millisecond, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBackoff(tc.base, tc.cap, 42)
			// NewBackoff clamps cap up to base when cap < base.
			effCap := tc.cap
			if effCap < tc.base {
				effCap = tc.base
			}
			for i := 0; i < tc.attempts; i++ {
				want := tc.base << uint(i)
				if want > effCap || want <= 0 { // <=0 guards shift overflow
					want = effCap
				}
				got := b.Next()
				if got < want/2 || got > want {
					t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, got, want/2, want)
				}
				if got > effCap {
					t.Fatalf("attempt %d: delay %v exceeds cap %v", i, got, effCap)
				}
			}
		})
	}
}

// TestBackoffResetRestartsSchedule verifies reset-on-success: after Reset
// the next delay is drawn from the base interval again, not from where the
// previous incident left off.
func TestBackoffResetRestartsSchedule(t *testing.T) {
	base, cap := 8*time.Millisecond, 4*time.Second
	b := NewBackoff(base, cap, 7)
	for i := 0; i < 9; i++ {
		b.Next()
	}
	if b.Attempt() != 9 {
		t.Fatalf("Attempt() = %d, want 9", b.Attempt())
	}
	b.Reset()
	if b.Attempt() != 0 {
		t.Fatalf("Attempt() after Reset = %d, want 0", b.Attempt())
	}
	d := b.Next()
	if d < base/2 || d > base {
		t.Fatalf("post-Reset delay %v outside base interval [%v, %v]", d, base/2, base)
	}
}

// TestBackoffDeterministicBySeed verifies two schedules with the same seed
// agree exactly (reproducible chaos runs) and different seeds diverge (no
// reconnect lockstep between ranks).
func TestBackoffDeterministicBySeed(t *testing.T) {
	a := NewBackoff(5*time.Millisecond, time.Second, 99)
	b := NewBackoff(5*time.Millisecond, time.Second, 99)
	c := NewBackoff(5*time.Millisecond, time.Second, 100)
	same, diff := true, false
	for i := 0; i < 16; i++ {
		da, db, dc := a.Next(), b.Next(), c.Next()
		if da != db {
			same = false
		}
		if da != dc {
			diff = true
		}
	}
	if !same {
		t.Error("identical seeds produced different schedules")
	}
	if !diff {
		t.Error("distinct seeds produced identical schedules")
	}
}

// TestGatherTracesLateShardWakesPromptly pins the fix for the gather
// busy-wait: rank 0 blocks with a generous timeout while rank 1 ships its
// shard only after a delay. The waiter must return as soon as the late
// shard lands — far below the timeout — because the arrival broadcasts the
// condition instead of being noticed by a poll tick.
func TestGatherTracesLateShardWakesPromptly(t *testing.T) {
	const k = 2
	tracers := make([]*obs.Tracer, k)
	nodes, _ := mesh(t, k, nil, func(rank int, cfg *Config) {
		tracers[rank] = obs.NewTracer(0)
		tracers[rank].Enable()
		cfg.Tracer = tracers[rank]
	})

	const shipDelay = 150 * time.Millisecond
	var wg sync.WaitGroup
	wg.Add(1)
	var elapsed time.Duration
	var gatherErr error
	start := time.Now()
	go func() {
		defer wg.Done()
		_, gatherErr = nodes[0].GatherTraces(30 * time.Second)
		elapsed = time.Since(start)
	}()

	time.Sleep(shipDelay)
	if _, err := nodes[1].GatherTraces(30 * time.Second); err != nil {
		t.Fatalf("rank 1 ship: %v", err)
	}
	wg.Wait()
	if gatherErr != nil {
		t.Fatalf("gather: %v", gatherErr)
	}
	// The wake is a cond broadcast, so the gather should return within
	// scheduler noise of the ship; the margin absorbs loaded CI machines. A
	// waiter that only woke at its deadline would sit the full 30s.
	if elapsed > shipDelay+5*time.Second {
		t.Fatalf("gather took %v, want prompt wake after ~%v", elapsed, shipDelay)
	}
	if elapsed < shipDelay {
		t.Fatalf("gather returned after %v, before the shard shipped at %v", elapsed, shipDelay)
	}
}
