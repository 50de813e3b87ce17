package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"mittos/internal/experiments"
)

// Every measured run happens in a fresh child process of this binary, so
// each one starts from the state a user of `mittbench -run <id>` pays for:
// package init done, leg arenas cold, heap empty. The parent only spawns,
// waits and aggregates.

// execEnv carries the parent's clock reading taken just before it started
// the child, so the child can measure set-up time from process exec.
const execEnv = "PERFBENCH_EXEC_UNIX_NS"

// childTimeout bounds one child; a run must finish well inside the
// benchmark's 180 s limit.
const childTimeout = 150 * time.Second

// Child modes.
const (
	modeProbe  = "probe"  // measure set-up only, then exit before the run
	modeRun    = "run"    // one untraced run
	modeTraced = "traced" // one run with RunConfig.Metrics on and a CPU profile
)

// childReport is the single JSON line a child prints.
type childReport struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Mallocs    uint64             `json:"mallocs"`
	GCCycles   uint32             `json:"gc_cycles"`
	Digest     string             `json:"digest"`
	Counts     map[string]float64 `json:"counts,omitempty"`

	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
}

// runChild is the body of a child process: it times one experiments.Run
// and prints a childReport.
func runChild(mode, workload string, seed int64, profile string) error {
	t0, err := strconv.ParseInt(os.Getenv(execEnv), 10, 64)
	if err != nil {
		return fmt.Errorf("reading %s: %w", execEnv, err)
	}
	cfg := runConfig(workload, seed, workers(), mode == modeTraced)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	start := time.Now()
	rep := childReport{SetupS: float64(start.UnixNano()-t0) / 1e9}
	if mode == modeProbe {
		return emit(rep)
	}

	res, err := experiments.Run(workload, cfg)
	wall := time.Since(start)
	cpu1, cpuErr := cpuTime()
	if profile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	if cpuErr != nil {
		return cpuErr
	}
	runtime.ReadMemStats(&after)

	rep.WallS = wall.Seconds()
	rep.CPUS = (cpu1 - cpu0).Seconds()
	rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.GCCycles = after.NumGC - before.NumGC
	rep.Digest = digestOf(res.String())
	if mode == modeTraced {
		rep.Counts = countsOf(res.Metrics)
	}
	return emit(rep)
}

func emit(rep childReport) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// digestOf is the reference form of a rendered Result.
func digestOf(rendered string) string {
	sum := sha256.Sum256([]byte(rendered))
	return hex.EncodeToString(sum[:])
}

// spawn runs one child in the given mode, waits for it, and returns its
// report with the peak RSS the kernel recorded for it.
func spawn(mode, workload string, seed int64, profile string) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", mode, "-workload", workload, "-seed", strconv.FormatInt(seed, 10)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A child must not outlive the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = append(os.Environ(), execEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &rep); err != nil {
		return nil, fmt.Errorf("%s child: bad report %q: %w", mode, stdout.String(), err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &rep, nil
}
