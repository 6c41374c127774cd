// Package norand holds the fixtures of bannedcall's norand rule, which was
// an analyzer of its own before the banned-call rules shared one table.
package norand

import (
	"testing"

	"repro/tools/analyzers/analysistest"
	"repro/tools/analyzers/bannedcall"
)

func TestNorand(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "norand")
}
