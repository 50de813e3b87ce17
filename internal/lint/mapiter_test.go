package lint

import "testing"

// simulationPaths is every package an experiment leg runs through.
var simulationPaths = []string{
	"../core",
	"../iosched",
	"../cluster",
	"../kv",
	"../disk",
	"../sim",
	"../oscache",
	"../ssd",
	"../netsim",
	"../noise",
	"../blockio",
	"../metrics",
	"../faults",
	"../ycsb",
	"../smr",
	"../vmm",
	"../experiments",
}

// TestNoMapIterationOnSimulationPaths is the determinism sweep: every
// package an experiment leg runs through must not range over maps without
// an explicit //mapiter:sorted justification. A failure here means a code
// path whose behavior can differ between two runs of the same seed.
func TestNoMapIterationOnSimulationPaths(t *testing.T) {
	findings, err := CheckMapIter(simulationPaths)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s", f.Pos, f.Text)
	}
}

// TestCheckerSeesThisPackage guards the checker itself against silently
// going blind (e.g. a parse-filter change skipping every file): it must
// still detect a plain map range in a fixture.
func TestCheckerSeesThisPackage(t *testing.T) {
	findings, err := CheckMapIter([]string{"testdata/fixture"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("fixture findings = %d, want exactly 1: %v", len(findings), findings)
	}
}
