package fleet

import (
	"testing"
	"time"

	"cash/internal/supervise"
)

// detector tests drive the state machine through a FakeClock, the same
// clock the fleet loop uses, so the timings here are exactly the
// production code path.

func newTestDetector(chips int) (*Detector, *supervise.FakeClock) {
	clk := supervise.NewFakeClock()
	d := NewDetector(chips, DetectorConfig{
		Suspect:     5 * time.Second,
		BackoffBase: 2 * time.Second,
		BackoffCap:  8 * time.Second,
		Confirm:     3,
	}, clk.Now())
	return d, clk
}

func TestDetectorConfirmsSilentChip(t *testing.T) {
	d, clk := newTestDetector(2)
	var died []int
	// Chip 1 heartbeats every second; chip 0 is silent from the start.
	for i := 0; i < 30 && len(died) == 0; i++ {
		clk.Advance(time.Second)
		d.Heartbeat(1, clk.Now())
		died = append(died, d.Check(clk.Now())...)
	}
	if len(died) != 1 || died[0] != 0 {
		t.Fatalf("died = %v, want [0]", died)
	}
	if d.State(0) != Dead || d.State(1) != Alive {
		t.Fatalf("states = %v/%v", d.State(0), d.State(1))
	}
	// Suspect at 5s, rechecks at +2s and +4s: confirmed at 11s.
	if got := clk.Now().Sub(time.Unix(1_000_000, 0)); got != 11*time.Second {
		t.Fatalf("confirmed after %v, want 11s", got)
	}
	if d.Stats.Suspicions != 1 || d.Stats.Confirmations != 1 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}

func TestDetectorFalseSuspicionClears(t *testing.T) {
	d, clk := newTestDetector(1)
	// Silence past the suspect timeout...
	clk.Advance(6 * time.Second)
	d.Check(clk.Now())
	if d.State(0) != Suspected {
		t.Fatalf("state = %v, want suspected", d.State(0))
	}
	// ...then a late heartbeat clears it.
	if wasDead := d.Heartbeat(0, clk.Now()); wasDead {
		t.Fatal("suspected chip reported as resurrected")
	}
	if d.State(0) != Alive {
		t.Fatalf("state after heartbeat = %v", d.State(0))
	}
	if d.Stats.FalseSuspicions != 1 {
		t.Fatalf("false suspicions = %d, want 1", d.Stats.FalseSuspicions)
	}
}

func TestDetectorResurrection(t *testing.T) {
	d, clk := newTestDetector(1)
	for i := 0; i < 30 && d.State(0) != Dead; i++ {
		clk.Advance(time.Second)
		d.Check(clk.Now())
	}
	if d.State(0) != Dead {
		t.Fatal("chip never confirmed dead")
	}
	if wasDead := d.Heartbeat(0, clk.Now()); !wasDead {
		t.Fatal("heartbeat from dead chip not reported as resurrection")
	}
	if d.State(0) != Alive || d.Stats.Resurrections != 1 {
		t.Fatalf("state %v, resurrections %d", d.State(0), d.Stats.Resurrections)
	}
}

func TestDetectorSteadyHeartbeatsStayAlive(t *testing.T) {
	d, clk := newTestDetector(3)
	for i := 0; i < 100; i++ {
		clk.Advance(time.Second)
		for c := 0; c < 3; c++ {
			d.Heartbeat(c, clk.Now())
		}
		if died := d.Check(clk.Now()); len(died) != 0 {
			t.Fatalf("healthy chip died: %v", died)
		}
	}
	if d.Stats.Suspicions != 0 {
		t.Fatalf("healthy fleet produced %d suspicions", d.Stats.Suspicions)
	}
}
