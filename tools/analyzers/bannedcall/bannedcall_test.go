package bannedcall_test

import (
	"testing"

	"repro/tools/analyzers/analysistest"
	"repro/tools/analyzers/bannedcall"
)

// One test per rule of the table, named as when each rule was an analyzer
// of its own; the fixtures under testdata/src are the rules' positive and
// exempt packages.

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "wallclock", "simclock")
}

func TestNorand(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "norand")
}

func TestStructlog(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "structlog", "structlogmain")
}

func TestClientTimeout(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "clienttimeout")
}

func TestStoreWrite(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "storewrite", "store")
}

func TestCtxprop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bannedcall.Analyzer, "ctxprop", "ctxpropclean")
}
