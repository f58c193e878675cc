// Package timeutil provides the time handling AIQL queries need: parsing of
// US and ISO 8601 date/time literals at several granularities, duration
// units for temporal relationships ("before[1-2 minutes]") and sliding
// windows, and the UTC day index that keys the storage layer's temporal
// partitions (paper Sec. 5.2).
package timeutil

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Millis is a timestamp in unix milliseconds, the engine's native time unit.
type Millis = int64

// Window is a half-open time interval [From, To) in unix milliseconds.
// A zero Window means "unbounded".
type Window struct {
	From Millis
	To   Millis
}

// Unbounded reports whether the window places no temporal constraint.
func (w Window) Unbounded() bool { return w.From == 0 && w.To == 0 }

// Contains reports whether t falls inside the window.
func (w Window) Contains(t Millis) bool {
	if w.Unbounded() {
		return true
	}
	return t >= w.From && t < w.To
}

// Intersect returns the overlap of two windows; unbounded windows act as
// identity elements.
func (w Window) Intersect(o Window) Window {
	if w.Unbounded() {
		return o
	}
	if o.Unbounded() {
		return w
	}
	out := Window{From: max64(w.From, o.From), To: min64(w.To, o.To)}
	if out.To < out.From {
		out.To = out.From // empty
	}
	if out == (Window{}) {
		// An empty intersection landing exactly at the origin would read
		// as the unbounded zero Window; any empty window is equivalent,
		// so use one off the origin.
		out = EmptyWindow()
	}
	return out
}

// EmptyWindow returns a canonical window containing no instants. It is
// deliberately not the zero Window, which means "unbounded" — code
// synthesizing possibly-empty windows from data (temporal joins over
// pre-epoch timestamps can place an empty range exactly at the origin)
// must use this form so the result never reads as "no constraint".
func EmptyWindow() Window { return Window{From: 1, To: 1} }

// Empty reports whether a bounded window contains no instants.
func (w Window) Empty() bool { return !w.Unbounded() && w.To <= w.From }

// Duration returns the window length in milliseconds (0 if unbounded).
func (w Window) Duration() int64 {
	if w.Unbounded() {
		return 0
	}
	return w.To - w.From
}

func (w Window) String() string {
	if w.Unbounded() {
		return "[unbounded]"
	}
	return fmt.Sprintf("[%s, %s)", FormatMillis(w.From), FormatMillis(w.To))
}

const dayMillis = 24 * 60 * 60 * 1000

// DayMillis is the length of one day in milliseconds.
const DayMillis = dayMillis

// MinMillis and MaxMillis are the sentinel bounds for half-unbounded
// windows: a "no lower bound" window uses From = MinMillis and a "no upper
// bound" window uses To = MaxMillis, keeping the window distinct from the
// zero (fully unbounded) Window while containing every representable
// timestamp — including pre-epoch (negative) ones, which a From of 0 or 1
// would wrongly exclude.
const (
	MinMillis Millis = -(1 << 62)
	MaxMillis Millis = 1 << 62
)

// SplitByDay partitions a bounded window at UTC day boundaries, producing
// one sub-window per day partition the window touches. An unbounded
// window is returned unchanged as a single element. Day boundaries are
// floor-aligned, so a window straddling the epoch splits at t=0 instead of
// fusing the pre-epoch remainder into day 0's sub-window.
func SplitByDay(w Window) []Window {
	if w.Unbounded() || w.Empty() {
		return []Window{w}
	}
	var out []Window
	cur := w.From
	for cur < w.To {
		next := int64(DayIndex(cur)+1) * dayMillis
		if next > w.To {
			next = w.To
		}
		out = append(out, Window{From: cur, To: next})
		cur = next
	}
	return out
}

// DayIndex returns the UTC day number of a timestamp, the storage layer's
// temporal partition key. The division floors: pre-epoch timestamps map to
// negative day numbers (DayIndex(-1) == -1), so the day boundary at the
// epoch separates two distinct days instead of collapsing [-day, day) onto
// day 0 — truncating division here once made mpp.Placement shard
// assignment disagree with partition selection for pre-epoch events.
func DayIndex(t Millis) int {
	day := t / dayMillis
	if t%dayMillis != 0 && t < 0 {
		day--
	}
	return int(day)
}

// DayWindow returns the window covering the given UTC day number.
func DayWindow(day int) Window {
	return Window{From: int64(day) * dayMillis, To: int64(day+1) * dayMillis}
}

// dateLayouts are tried in order when parsing date/time literals. AIQL
// accepts common US formats and ISO 8601 at multiple granularities.
var dateLayouts = []string{
	"01/02/2006 15:04:05",
	"01/02/2006 15:04",
	"01/02/2006",
	"2006-01-02T15:04:05",
	"2006-01-02 15:04:05",
	"2006-01-02 15:04",
	"2006-01-02",
	"01/02/2006 3:04:05 PM",
	"01/02/2006 3:04 PM",
}

// ParseDateTime parses a date/time literal and returns the timestamp in
// unix milliseconds plus the granularity of the literal (the span it
// covers: a bare date covers a whole day). All literals are interpreted
// in UTC, matching the paper's NTP-synchronized agent clocks.
func ParseDateTime(s string) (start Millis, granularity int64, err error) {
	s = strings.TrimSpace(s)
	for _, layout := range dateLayouts {
		t, perr := time.ParseInLocation(layout, s, time.UTC)
		if perr != nil {
			continue
		}
		g := granularityOf(layout)
		return t.UnixMilli(), g, nil
	}
	return 0, 0, fmt.Errorf("timeutil: unrecognized date/time literal %q", s)
}

func granularityOf(layout string) int64 {
	switch {
	case strings.Contains(layout, ":04:05"):
		return 1000
	case strings.Contains(layout, ":04"):
		return 60 * 1000
	default:
		return dayMillis
	}
}

// AtWindow converts an `(at "...")` literal into the window covering the
// literal's granularity: a date covers its day, a minute-resolution literal
// covers that minute, etc.
func AtWindow(s string) (Window, error) {
	start, g, err := ParseDateTime(s)
	if err != nil {
		return Window{}, err
	}
	return Window{From: start, To: start + g}, nil
}

// FromToWindow converts a `from "..." to "..."` pair into a window; the end
// literal is inclusive of its granularity.
func FromToWindow(from, to string) (Window, error) {
	start, _, err := ParseDateTime(from)
	if err != nil {
		return Window{}, err
	}
	end, g, err := ParseDateTime(to)
	if err != nil {
		return Window{}, err
	}
	w := Window{From: start, To: end + g}
	if w.Empty() {
		return Window{}, fmt.Errorf("timeutil: empty window from %q to %q", from, to)
	}
	return w, nil
}

// unitMillis maps AIQL duration unit keywords to milliseconds.
var unitMillis = map[string]int64{
	"ms":           1,
	"millisecond":  1,
	"milliseconds": 1,
	"s":            1000,
	"sec":          1000,
	"secs":         1000,
	"second":       1000,
	"seconds":      1000,
	"min":          60 * 1000,
	"mins":         60 * 1000,
	"minute":       60 * 1000,
	"minutes":      60 * 1000,
	"h":            3600 * 1000,
	"hour":         3600 * 1000,
	"hours":        3600 * 1000,
	"day":          dayMillis,
	"days":         dayMillis,
}

// UnitMillis returns the milliseconds per unit for an AIQL time unit
// keyword ("sec", "min", "hour", ...).
func UnitMillis(unit string) (int64, error) {
	if m, ok := unitMillis[strings.ToLower(unit)]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("timeutil: unknown time unit %q", unit)
}

// ParseDuration parses "<number> <unit>" (e.g. "1 min", "10 sec") into
// milliseconds.
func ParseDuration(num, unit string) (int64, error) {
	n, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("timeutil: bad duration count %q: %v", num, err)
	}
	m, err := UnitMillis(unit)
	if err != nil {
		return 0, err
	}
	return int64(n * float64(m)), nil
}

// FormatMillis renders a timestamp for human-facing output.
func FormatMillis(t Millis) string {
	return time.UnixMilli(t).UTC().Format("2006-01-02 15:04:05.000")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
