package benchkit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestBenchkitRowsMatchSnapshot pins the headline table to the newest
// committed BENCH_*.json snapshot: the same row names in the same order. A
// renamed, dropped or added row must land together with a snapshot that
// records it, or the regression gate would compare against nothing.
func TestBenchkitRowsMatchSnapshot(t *testing.T) {
	snaps, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no BENCH_*.json snapshot at the repository root")
	}
	slices.Sort(snaps) // dated names: the last is the newest
	raw, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct{ Name string }
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, r := range recs {
		want = append(want, r.Name)
	}
	for _, r := range Rows {
		got = append(got, r.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("benchkit rows:\n%q\n%s rows:\n%q", got, filepath.Base(snaps[len(snaps)-1]), want)
	}
}
