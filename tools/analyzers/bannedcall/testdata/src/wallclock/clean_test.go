package wallclock

import "time"

// Test files may use the wall clock freely; nothing here is diagnosed.
func waitABit() {
	time.Sleep(time.Millisecond)
	_ = time.Now()
}
