package lint

import (
	"reflect"
	"sort"
	"testing"
)

// TestNoUnusedCode is the dead-code sweep: no package on the simulation
// paths, nor stats, trace, nosqlsurvey or benchkit, may keep an unexported
// declaration its non-test code never uses. A helper only tests need
// belongs in a _test.go file.
func TestNoUnusedCode(t *testing.T) {
	dirs := append([]string{"../stats", "../trace", "../nosqlsurvey", "../benchkit"}, simulationPaths...)
	findings, err := CheckUnused(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s", f.Pos, f.Text)
	}
}

// TestUnusedCheckerSeesFixture guards the checker against going blind or
// over-reporting: on the fixture it must report exactly the planted dead
// declarations.
func TestUnusedCheckerSeesFixture(t *testing.T) {
	findings, err := CheckUnused([]string{"testdata/unused"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Text)
	}
	sort.Strings(got)
	want := []string{
		"const deadConst is unused outside tests",
		"func deadFunc is unused outside tests",
		"func onlyTests is unused outside tests",
		"func recurse is unused outside tests",
		"method (*live).deadMethod is unused outside tests",
		"type deadType is unused outside tests",
		"var deadVar is unused outside tests",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fixture findings:\n%v\nwant:\n%v", got, want)
	}
}
