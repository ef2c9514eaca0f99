// Package backoff holds the capped exponential delay every retry loop
// in the repo shares: the supervised-cell executor, the cashd client
// and the fleet failure detector. Callers layer their own jitter on top.
package backoff

import "time"

// Exp returns the delay before retry n (1-based): min(base·2^(n−1), cap).
// It doubles with a cap rather than shifting, so no n overflows. A
// non-positive base yields cap.
func Exp(base, cap time.Duration, n int) time.Duration {
	if base <= 0 {
		return cap
	}
	d := base
	for i := 1; i < n; i++ {
		if d > cap/2 {
			return cap
		}
		d *= 2
	}
	return min(d, cap)
}
