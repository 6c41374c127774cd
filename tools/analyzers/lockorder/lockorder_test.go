package lockorder_test

import (
	"testing"

	"repro/tools/analyzers/analysistest"
	"repro/tools/analyzers/lockorder"
)

func TestLockorder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "lockorder", "lockorderclean")
}

// TestLockcheck covers the `// guarded by mu` rule (guarded.go).
func TestLockcheck(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "lockcheck")
}
