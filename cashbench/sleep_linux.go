package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than
// time.Sleep: the Go timer wakes ~0.5 ms late on Linux hosts whose
// netpoller waits at millisecond granularity, which would charge the
// load generator's own lateness to every submit; nanosleep wakes within
// ~0.1 ms.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}
