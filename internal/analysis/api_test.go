package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Every exported function and method of an internal/ package has a caller
// outside its package, or a //repro:api mark saying why not. The module's
// packages are read by a go list subprocess, which go test's cache does
// not see: run this test with -count=1.
func TestExportedAPIHasOutsideCaller(t *testing.T) {
	pkgs, err := analysis.Load("../..", false, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, d := range analysis.UnreferencedExports(pkgs) {
		t.Errorf("%s", d)
	}
}

// The fixture module holds one case of every rule: each want comment is a
// finding the gate must report, and every other exported declaration is
// one of the exemptions it must keep quiet about.
func TestExportedAPIFixture(t *testing.T) {
	analysistest.RunModule(t, "testdata/apigate", analysis.UnreferencedExports)
}
