// Package structlog holds the fixtures of bannedcall's structlog rule, which was
// an analyzer of its own before the banned-call rules shared one table.
package structlog

import (
	"testing"

	"repro/tools/analyzers/analysistest"
	"repro/tools/analyzers/bannedcall"
)

func TestStructlog(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "structlog", "structlogmain")
}
