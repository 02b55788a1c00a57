// Package sim provides the deterministic simulation substrate shared by all
// hardware models: a virtual clock, simulated durations, and a reproducible
// random number generator.
//
// Every hardware component (CPU, disk, memory) charges time against a shared
// *Clock rather than the wall clock, which makes experiments deterministic,
// fast, and independent of the host machine.
package sim

import "fmt"

// Duration is a span of virtual time in seconds.
type Duration float64

// Common durations.
const (
	Nanosecond  Duration = 1e-9
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
)

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%.1fns", float64(d)/1e-9)
	case d < Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d)/1e-6)
	case d < Second:
		return fmt.Sprintf("%.2fms", float64(d)/1e-3)
	case d < Minute:
		return fmt.Sprintf("%.3fs", float64(d))
	default:
		return fmt.Sprintf("%.1fmin", float64(d)/60)
	}
}

// Time is an instant of virtual time, in seconds since the start of the
// simulation.
type Time float64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier instant u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Clock is a virtual clock. The zero value is a clock at time zero, ready to
// use. A single Clock is shared by all components of one simulated machine;
// it is not safe for concurrent use (simulated machines are single-threaded
// by design, mirroring the one-query-at-a-time model in the paper).
type Clock struct {
	now Time
}

// NewClock returns a clock starting at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new time.
// Advancing by a negative duration panics: simulated time is monotonic.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", d))
	}
	c.now = c.now.Add(d)
	return c.now
}

// AdvanceTo moves the clock forward to instant t. It panics if t is in the
// past.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moved backwards from %v to %v", c.now, t))
	}
	c.now = t
}

// Reset rewinds the clock to zero. Only experiment harnesses should call
// this, between independent runs.
func (c *Clock) Reset() { c.now = 0 }
