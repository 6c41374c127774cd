// Package simclock mirrors the sanctioned clock wrapper: inside the
// simclock package itself, wall-clock calls are the whole point and are
// not diagnosed.
package simclock

import "time"

type Real struct{}

func (Real) Now() time.Time                         { return time.Now() }
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (Real) Sleep(d time.Duration)                  { time.Sleep(d) }
