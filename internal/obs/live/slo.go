package live

import (
	"sync"
	"time"
)

// sloSlots × sloSlotWidth is the burn-rate window: violations are
// aggregated into rotating fixed-width slots so the rate reflects the last
// ~minute of traffic rather than the process lifetime.
const (
	sloSlots     = 6
	sloSlotWidth = 10 * time.Second
)

// SLO tracks a latency/availability service-level objective: a request is
// "good" when it succeeds within the target latency. The burn rate is the
// windowed bad-request ratio divided by the error budget — burn rate 1.0
// means the budget is being consumed exactly as provisioned, >1 means the
// service is eating future budget (the standard multiwindow-burn-rate
// alerting input).
type SLO struct {
	target time.Duration
	budget float64
	now    func() time.Time

	mu    sync.Mutex
	slots [sloSlots]sloSlot
	cur   int
}

type sloSlot struct {
	start      time.Time
	total, bad uint64
}

// NewSLO creates a tracker for a target latency and an error budget (the
// tolerated bad-request fraction, e.g. 0.01 for 99% good). now is the
// clock, nil for time.Now.
func NewSLO(target time.Duration, budget float64, now func() time.Time) *SLO {
	if now == nil {
		now = time.Now
	}
	if budget <= 0 {
		budget = 0.01
	}
	s := &SLO{target: target, budget: budget, now: now}
	s.slots[0].start = now()
	return s
}

// Target returns the SLO latency target.
func (s *SLO) Target() time.Duration { return s.target }

// Observe counts one request: bad when it failed or exceeded the target.
func (s *SLO) Observe(lat time.Duration, failed bool) {
	bad := failed || (s.target > 0 && lat > s.target)
	s.mu.Lock()
	s.rotate(s.now())
	s.slots[s.cur].total++
	if bad {
		s.slots[s.cur].bad++
	}
	s.mu.Unlock()
}

// rotate advances to a fresh slot when the current one's width elapsed,
// reclaiming slots that fell out of the window. Callers hold mu.
func (s *SLO) rotate(now time.Time) {
	for now.Sub(s.slots[s.cur].start) >= sloSlotWidth {
		next := (s.cur + 1) % sloSlots
		s.slots[next] = sloSlot{start: s.slots[s.cur].start.Add(sloSlotWidth)}
		s.cur = next
	}
}

// BurnRate returns the windowed bad-request ratio divided by the error
// budget. Zero traffic in the window burns nothing.
func (s *SLO) BurnRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	s.rotate(now)
	var total, bad uint64
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.total == 0 && sl.bad == 0 {
			continue
		}
		if now.Sub(sl.start) <= sloSlots*sloSlotWidth {
			total += sl.total
			bad += sl.bad
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total) / s.budget
}
