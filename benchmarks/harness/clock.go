package harness

import "time"

// now is the harness's one wall-clock read: every latency, rate and due
// time in the ledger derives from it.
func now() time.Time {
	return time.Now() //aiql:ignore wallclock -- a load generator measures wall time by definition; nothing here feeds query evaluation
}

func msSince(t time.Time) float64 { return float64(now().Sub(t).Nanoseconds()) / 1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
