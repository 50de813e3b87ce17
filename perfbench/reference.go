package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mittos/internal/experiments"
)

// The simulated statistics are the correctness check, not a metric: every
// run's rendered Result.String() must hash to the reference digest. At seed
// 1, for a workload that renders the registry's default configuration, the
// reference is the committed golden file. Otherwise it is a digest recorded
// by `perfbench -record-digests`, which renders each seed on the serial
// reference schedule (one worker), so a match also shows that the parallel
// run is deterministic; the seed-1 loadsweep digest is itself tied to the
// golden file by TestSubKneeLoadsweepMatchesGolden. For a seed with no
// recorded digest there is no reference, and the benchmark refuses to run.

//go:embed digests.json
var digestsJSON []byte

// digestFile is where -record-digests writes, relative to the repo root.
const digestFile = "perfbench/digests.json"

// reference is the expected digest for one (workload, seed).
type reference struct {
	digest string
	source string
}

func goldenPath(root, workload string) string {
	return filepath.Join(root, "internal", "experiments", "testdata", "golden", workload+".txt")
}

// recordedDigests parses the embedded table: workload → seed → digest.
func recordedDigests() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("parsing digests.json: %w", err)
	}
	return m, nil
}

func loadReference(root, workload string, seed int64) (*reference, error) {
	if seed == 1 && runConfig(workload, seed, 0, false).Rates == nil {
		path := goldenPath(root, workload)
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading golden output: %w", err)
		}
		return &reference{digest: digestOf(string(b)), source: "golden " + filepath.ToSlash(path)}, nil
	}
	m, err := recordedDigests()
	if err != nil {
		return nil, err
	}
	if d, ok := m[workload][strconv.FormatInt(seed, 10)]; ok {
		return &reference{digest: d, source: "recorded digest (serial schedule)"}, nil
	}
	return nil, fmt.Errorf("no reference digest for %s seed %d (record one with -record-digests)", workload, seed)
}

// recordDigests renders the workload at every seed of spec ("a-b" or "a")
// on one worker and merges the digests into digests.json on disk.
func recordDigests(root, workload, spec string) error {
	lo, hi, err := parseSeedRange(spec)
	if err != nil {
		return err
	}
	got := map[string]string{}
	for seed := lo; seed <= hi; seed++ {
		res, err := experiments.Run(workload, runConfig(workload, seed, 1, false))
		if err != nil {
			return err
		}
		d := digestOf(res.String())
		got[strconv.FormatInt(seed, 10)] = d
		fmt.Printf("%s seed %d %s\n", workload, seed, d)
	}
	// Read the file only now, so recorders of different workloads can run
	// side by side.
	path := filepath.Join(root, digestFile)
	m := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	}
	if m[workload] == nil {
		m[workload] = map[string]string{}
	}
	for seed, d := range got {
		m[workload][seed] = d
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func parseSeedRange(spec string) (lo, hi int64, err error) {
	a, b, ranged := strings.Cut(spec, "-")
	if lo, err = strconv.ParseInt(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("seed range %q: %w", spec, err)
	}
	hi = lo
	if ranged {
		if hi, err = strconv.ParseInt(b, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("seed range %q: %w", spec, err)
		}
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("seed range %q is empty", spec)
	}
	return lo, hi, nil
}
