// Package wallclock holds the fixtures of bannedcall's wallclock rule, which was
// an analyzer of its own before the banned-call rules shared one table.
package wallclock

import (
	"testing"

	"repro/tools/analyzers/analysistest"
	"repro/tools/analyzers/bannedcall"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "wallclock", "simclock")
}
