package backoff

import (
	"math"
	"testing"
	"time"
)

func TestExp(t *testing.T) {
	const ms, s = time.Millisecond, time.Second
	cases := []struct {
		name      string
		base, cap time.Duration
		want      []time.Duration // delays for n = 1, 2, ...
	}{
		// The supervised-cell executor's shape.
		{"supervisor", 1 * s, 4 * s, []time.Duration{1 * s, 2 * s, 4 * s, 4 * s, 4 * s, 4 * s, 4 * s, 4 * s, 4 * s, 4 * s}},
		// The fleet detector's recheck cadence.
		{"detector", 2 * s, 8 * s, []time.Duration{2 * s, 4 * s, 8 * s, 8 * s, 8 * s}},
		// The cashd client's shape.
		{"client", 10 * ms, 80 * ms, []time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 80 * ms, 80 * ms, 80 * ms, 80 * ms}},
		// A cap that is not a power-of-two multiple of the base is hit exactly.
		{"odd cap", 3 * ms, 10 * ms, []time.Duration{3 * ms, 6 * ms, 10 * ms, 10 * ms}},
		{"base above cap", 9 * s, 4 * s, []time.Duration{4 * s, 4 * s}},
		{"zero base", 0, 5 * ms, []time.Duration{5 * ms, 5 * ms}},
		{"negative base", -ms, 5 * ms, []time.Duration{5 * ms}},
	}
	for _, c := range cases {
		for i, w := range c.want {
			if got := Exp(c.base, c.cap, i+1); got != w {
				t.Errorf("%s: Exp(%v, %v, %d) = %v, want %v", c.name, c.base, c.cap, i+1, got, w)
			}
		}
	}
	// n <= 1 is the base delay.
	if got := Exp(7*ms, s, 0); got != 7*ms {
		t.Errorf("Exp(n=0) = %v, want the base", got)
	}
	// Far past the point a shift would overflow, the cap still holds.
	for _, n := range []int{63, 64, 65, 1000, math.MaxInt32} {
		if got := Exp(5*ms, math.MaxInt64, n); got != math.MaxInt64 {
			t.Errorf("Exp(5ms, max, %d) = %v, want the cap", n, got)
		}
		if got := Exp(5*ms, 250*ms, n); got != 250*ms {
			t.Errorf("Exp(5ms, 250ms, %d) = %v, want the cap", n, got)
		}
	}
}
