// Package wallclock is the flagged-code fixture for the wallclock
// analyzer: every clock-reading call in package time must be diagnosed,
// while pure time construction and arithmetic stay clean.
package wallclock

import "time"

func bad() {
	_ = time.Now()              // want `time\.Now reads the wall clock; use the injected simclock\.Clock`
	_ = time.Since(time.Time{}) // want `time\.Since reads the wall clock`
	_ = time.Until(time.Time{}) // want `time\.Until reads the wall clock`
	<-time.After(time.Second)   // want `time\.After reads the wall clock`
	time.Sleep(time.Second)     // want `time\.Sleep reads the wall clock`
	_ = time.NewTicker(1)       // want `time\.NewTicker reads the wall clock`
	_ = time.NewTimer(1)        // want `time\.NewTimer reads the wall clock`
	_ = time.AfterFunc(1, nil)  // want `time\.AfterFunc reads the wall clock`
}

// badValue passes the clock function as a value; that leaks the wall
// clock just as surely as calling it.
func badValue() func() time.Time {
	return time.Now // want `time\.Now reads the wall clock`
}

func good() time.Time {
	t := time.Date(2011, 4, 22, 11, 0, 0, 0, time.UTC)
	d := 25 * time.Second
	t = t.Add(d).Truncate(time.Minute)
	_, _ = time.Parse(time.RFC3339, "2011-04-22T11:00:00Z")
	return t
}
