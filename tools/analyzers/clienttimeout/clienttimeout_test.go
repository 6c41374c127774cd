// Package clienttimeout holds the fixtures of bannedcall's clienttimeout rule, which was
// an analyzer of its own before the banned-call rules shared one table.
package clienttimeout

import (
	"testing"

	"repro/tools/analyzers/analysistest"
	"repro/tools/analyzers/bannedcall"
)

func TestClientTimeout(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "clienttimeout")
}
