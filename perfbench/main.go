// Command perfbench is the repository's same-machine benchmark: it measures
// the host cost (wall time, CPU time, allocation, set-up time) of
// regenerating one experiment, and checks every run's rendered output
// against a reference before the run counts.
//
// Run it from the repository root through the wrapper, which builds it from
// source first:
//
//	bash perfbench/run.sh --workload fig7 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced runs, microbenchmarks each layer's public
// calls, and prints the per-layer metrics. The last line of standard output
// is always one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"mittos/internal/experiments"
)

// workloads are the experiment ids the benchmark measures, in the order
// BENCHMARK.json lists them.
var workloads = []string{"loadsweep", "fig7", "fig3"}

// subKneeRates are the loadsweep offered-load multipliers the benchmark
// runs: the built-in sweep's points below saturation (0.2×, 0.5×, 0.8×).
// Past the knee the queues grow without bound and the amount of simulated
// work swings with the seed-calibrated deadlines (quick scale, seeds 1–6:
// 730–1330 MB allocated, 21–35 CPU-seconds), too far apart for any run to
// be compared with another; below it the same seeds stay within ±7%.
var subKneeRates = []float64{0.2, 0.5, 0.8}

// nominalRunSeconds is one run's wall time per workload at quick scale on
// a 2-vCPU Xeon. It fixes how many runs fit in --seconds, so the inputs a
// run measures depend only on its arguments, never on how fast it went.
var nominalRunSeconds = map[string]float64{"loadsweep": 6, "fig7": 1.1, "fig3": 2.8}

// runsFor is the number of measured runs for a workload: --seconds worth
// at the nominal run time, at least one.
func runsFor(workload string, seconds int) int {
	return int(math.Max(1, math.Round(float64(seconds)/nominalRunSeconds[workload])))
}

// seedPool is the number of experiment seeds (0 to seedPool−1) with a
// recorded reference digest in digests.json.
const seedPool = 64

// expSeed is the experiment seed of the i-th run: the window of
// consecutive pool seeds starting at --seed. Spreading a run over several
// seeds averages out how much simulated work each seed happens to make.
func expSeed(seed int64, i int) int64 {
	return ((seed+int64(i))%seedPool + seedPool) % seedPool
}

// runConfig is the configuration every run of a workload uses; only the
// seed, the worker count and tracing vary.
func runConfig(workload string, seed int64, workers int, traced bool) experiments.RunConfig {
	cfg := experiments.RunConfig{Quick: true, Seed: seed, Workers: workers, Metrics: traced}
	if workload == "loadsweep" {
		cfg.Rates = subKneeRates
	}
	return cfg
}

// repoRoot is the repository root: the benchmark runs from there.
const repoRoot = "."

// artifactDir holds the traced run's CPU profile and ledger report, inside
// the (ignored) build directory of the checkout.
const artifactDir = ".bench_build/perfbench"

func main() {
	var (
		workload = flag.String("workload", "", "experiment to measure: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "first experiment seed of the run's window (taken mod 64)")
		seconds  = flag.Int("seconds", 30, "measuring time, in seconds at the nominal run times; fixes the number of runs")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
		child    = flag.String("child", "", "internal: run as a measured child process (probe, run or traced)")
		profile  = flag.String("profile", "", "internal: CPU profile path for a traced child")
		record   = flag.String("record-digests", "", "record reference digests for a seed range such as 0-63 into digests.json, then exit")
	)
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *workload, *seed, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if *record != "" {
		if err := recordDigests(repoRoot, *workload, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	printHost()
	var out result
	var err error
	if *trace == 1 {
		out, err = traceRun(repoRoot, *workload, *seed, *seconds)
	} else {
		out, err = measureRun(repoRoot, *workload, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func knownWorkload(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// printHost records what the numbers were measured on: the worker count
// every run uses, GOMAXPROCS, the Go version and the CPU model.
func printHost() {
	fmt.Printf("# host: workers=%d gomaxprocs=%d go=%s cpu=%q\n",
		workers(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// workers is the leg worker pool every measured run uses: one per CPU.
func workers() int { return runtime.NumCPU() }

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed runs and remembers why runs failed.
type tally struct {
	attempted, failed int
	problems          []string
}

// check records one run's outcome against the reference.
func (t *tally) check(ref *reference, label string, rep *childReport, err error) {
	t.attempted++
	if err != nil {
		t.fail(fmt.Sprintf("%s: %v", label, err))
	} else if rep.Digest != ref.digest {
		t.fail(fmt.Sprintf("%s: output digest %.12s… differs from the reference %.12s… (%s)",
			label, rep.Digest, ref.digest, ref.source))
	}
}

// fail records a failed check.
func (t *tally) fail(problem string) {
	t.failed++
	t.problems = append(t.problems, problem)
}

func (t *tally) result(ms map[string]metric) result {
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}
}

// writeArtifact stores a report next to the traced run's CPU profile.
func writeArtifact(name string, v any) error {
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(artifactDir, name), append(b, '\n'), 0o644)
}

var errNoRuns = errors.New("no measured run completed")
