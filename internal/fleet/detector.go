package fleet

import (
	"fmt"
	"time"

	"cash/internal/backoff"
)

// The failure detector is heartbeat-based. Each chip is expected to
// heartbeat every tick it is healthy; the detector tracks the last
// heartbeat time per chip and moves silent chips through
// Alive → Suspected → Dead. Suspicion is cheap and reversible: a
// heartbeat from a suspected chip clears it (counted as a false
// suspicion, the cost of an aggressive timeout). Between suspicion
// rechecks the detector backs off exponentially up to a cap, and only
// after Confirm consecutive silent rechecks does it declare the chip
// dead — at which point the control plane revokes its leases and
// re-places the work. All timing flows through time.Time values taken
// from a supervise.Clock, so the whole state machine is exercisable
// under FakeClock.

// ChipState is a chip's health as the detector sees it.
type ChipState uint8

const (
	// Alive: heartbeats arriving within the suspect timeout.
	Alive ChipState = iota
	// Suspected: silent past the timeout; rechecks are pending.
	Suspected
	// Dead: Confirm consecutive silent rechecks elapsed.
	Dead
)

// String names the chip state.
func (s ChipState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspected:
		return "suspected"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("chipstate(%d)", s)
}

// DetectorConfig tunes the failure detector. Zero values select the
// defaults noted on each field.
type DetectorConfig struct {
	// Suspect is the silence after which a chip becomes suspected
	// (default 5s of fleet time — 5 ticks).
	Suspect time.Duration
	// BackoffBase and BackoffCap bound the capped-exponential delay
	// between suspicion rechecks (defaults 2s and 8s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Confirm is how many consecutive silent rechecks (including the
	// initial suspicion) confirm death (default 3).
	Confirm int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Suspect == 0 {
		c.Suspect = 5 * time.Second
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 2 * time.Second
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 8 * time.Second
	}
	if c.Confirm == 0 {
		c.Confirm = 3
	}
	return c
}

// DetectorStats counts detector transitions for the run report.
type DetectorStats struct {
	// Suspicions counts Alive→Suspected transitions.
	Suspicions int64
	// FalseSuspicions counts heartbeats that cleared a suspected chip.
	FalseSuspicions int64
	// Confirmations counts Suspected→Dead transitions.
	Confirmations int64
	// Resurrections counts heartbeats from chips already declared dead
	// (a confirmed-dead chip that was merely partitioned).
	Resurrections int64
}

type chipHealth struct {
	state     ChipState
	lastBeat  time.Time
	strikes   int       // consecutive silent rechecks while suspected
	nextCheck time.Time // when the next suspicion recheck is due
}

// Detector is the fleet's heartbeat failure detector.
type Detector struct {
	cfg   DetectorConfig
	chips []chipHealth
	Stats DetectorStats
}

// NewDetector builds a detector over n chips, all considered freshly
// heartbeaten at now.
func NewDetector(n int, cfg DetectorConfig, now time.Time) *Detector {
	d := &Detector{cfg: cfg.withDefaults(), chips: make([]chipHealth, n)}
	for i := range d.chips {
		d.chips[i] = chipHealth{state: Alive, lastBeat: now}
	}
	return d
}

// State returns a chip's current health.
func (d *Detector) State(chip int) ChipState { return d.chips[chip].state }

// Heartbeat records a heartbeat from chip at now. A suspected chip is
// cleared back to Alive (a false suspicion); a dead chip is resurrected
// (wasDead true) so the control plane can decide what to do with its
// late deliveries.
func (d *Detector) Heartbeat(chip int, now time.Time) (wasDead bool) {
	h := &d.chips[chip]
	switch h.state {
	case Suspected:
		d.Stats.FalseSuspicions++
	case Dead:
		d.Stats.Resurrections++
		wasDead = true
	}
	h.state = Alive
	h.lastBeat = now
	h.strikes = 0
	return wasDead
}

// backoff returns the capped-exponential recheck delay after the given
// number of strikes.
func (d *Detector) backoff(strikes int) time.Duration {
	return backoff.Exp(d.cfg.BackoffBase, d.cfg.BackoffCap, strikes)
}

// Check advances the state machine to now and returns the chips newly
// confirmed dead this call, in ascending index order.
func (d *Detector) Check(now time.Time) []int {
	var died []int
	for i := range d.chips {
		h := &d.chips[i]
		switch h.state {
		case Alive:
			if now.Sub(h.lastBeat) >= d.cfg.Suspect {
				h.state = Suspected
				h.strikes = 1
				h.nextCheck = now.Add(d.backoff(1))
				d.Stats.Suspicions++
			}
		case Suspected:
			if now.Before(h.nextCheck) {
				continue
			}
			h.strikes++
			if h.strikes >= d.cfg.Confirm {
				h.state = Dead
				d.Stats.Confirmations++
				died = append(died, i)
			} else {
				h.nextCheck = now.Add(d.backoff(h.strikes))
			}
		}
	}
	return died
}
