package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mittos/internal/experiments"
)

// The tests run from the benchmark's directory; the repository root is its
// parent.
const testRoot = ".."

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json names exactly
// the workloads and metrics (with units) the command prints, both ways.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	check := func(kind string, listed []entry, specs []metricSpec) {
		t.Helper()
		want := map[string]string{}
		for _, e := range listed {
			want[e.Name] = e.Unit
		}
		// Assemble exactly as the command does, so a metric the command
		// prints but BENCHMARK.json lacks (or the reverse) shows here.
		values := map[string]float64{}
		for _, s := range specs {
			values[s.name] = 1
		}
		ms, err := assemble(specs, values)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range ms {
			if u, ok := want[name]; !ok {
				t.Errorf("%s: command prints %s, BENCHMARK.json does not list it", kind, name)
			} else if u != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the command", kind, name, u, m.Unit)
			}
		}
		for name := range want {
			if _, ok := ms[name]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %s, the command does not print it", kind, name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

func TestAssembleRejectsMissingAndExtraMetrics(t *testing.T) {
	specs := []metricSpec{{"a", "s"}, {"b", "ns"}}
	if _, err := assemble(specs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := assemble(specs, map[string]float64{"a": 1, "c": 2}); err == nil {
		t.Error("an unlisted metric was accepted")
	}
	ms, err := assemble(specs, map[string]float64{"a": 1, "b": 2})
	if err != nil || ms["b"] != (metric{2, "ns"}) {
		t.Errorf("assemble = %v, %v", ms, err)
	}
}

// TestTracedCountsRepeat runs fig7 traced twice: the exact counts must be
// identical and non-trivial, and the output must match the golden file.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig7 twice")
	}
	ref, err := loadReference(testRoot, "fig7", 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs []map[string]float64
	for i := 0; i < 2; i++ {
		res, err := experiments.Run("fig7", experiments.RunConfig{Quick: true, Seed: 1, Workers: 2, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		if d := digestOf(res.String()); d != ref.digest {
			t.Fatalf("traced run %d: digest %s, golden %s", i+1, d, ref.digest)
		}
		runs = append(runs, countsOf(res.Metrics))
	}
	if !sameCounts(runs[0], runs[1]) {
		t.Errorf("traced counts differ between runs:\n%v\n%v", runs[0], runs[1])
	}
	for _, name := range []string{"sim.events_fired", "node.ios", "disk.ios", "oscache.hits", "oscache.evictions"} {
		if runs[0][name] <= 0 {
			t.Errorf("%s = %v, want > 0 for fig7", name, runs[0][name])
		}
	}
}

// TestRecordedDigestsAgreeWithGolden: for workloads that render the
// registry default, a recorded seed-1 digest must be the golden file's.
func TestRecordedDigestsAgreeWithGolden(t *testing.T) {
	m, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if runConfig(w, 1, 0, false).Rates != nil {
			continue
		}
		golden, err := loadReference(testRoot, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := m[w]["1"]; ok && d != golden.digest {
			t.Errorf("%s: recorded seed-1 digest %s, golden %s", w, d, golden.digest)
		}
	}
}

// TestSubKneeLoadsweepMatchesGolden ties the loadsweep workload (the
// built-in sweep cut to its sub-knee rates) to the golden file: at seed 1
// its notes and every sweep-table row must appear in the full sweep's golden
// output, and its digest must be the recorded seed-1 digest.
func TestSubKneeLoadsweepMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the loadsweep workload")
	}
	res, err := experiments.Run("loadsweep", runConfig("loadsweep", 1, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath(testRoot, "loadsweep"))
	if err != nil {
		t.Fatal(err)
	}
	norm := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	want := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		want[norm(line)] = true
	}
	rows := 0
	for _, line := range strings.Split(res.String(), "\n") {
		f := strings.Fields(line)
		row := len(f) > 2 && strings.HasSuffix(f[1], "x")
		if row {
			if _, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "x"), 64); err != nil {
				row = false
			}
		}
		if !row && !strings.HasPrefix(line, "note:") {
			continue
		}
		if !want[norm(line)] {
			t.Errorf("line not in the golden sweep: %q", line)
		}
		if row {
			rows++
		}
	}
	// Two tables (gets, puts) × four strategies × the sub-knee rates.
	if want := 2 * 4 * len(subKneeRates); rows != want {
		t.Errorf("found %d sweep rows, want %d", rows, want)
	}
	m, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	if d := m["loadsweep"]["1"]; d != digestOf(res.String()) {
		t.Errorf("recorded seed-1 loadsweep digest %q, rendered %q", d, digestOf(res.String()))
	}
}

// TestEveryPoolSeedHasDigest: a run may land on any seed of the pool, so
// each needs a reference.
func TestEveryPoolSeedHasDigest(t *testing.T) {
	m, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for s := int64(0); s < seedPool; s++ {
			if _, err := loadReference(testRoot, w, s); err != nil {
				t.Error(err)
			}
		}
		if len(m[w]) < seedPool {
			t.Errorf("%s: %d recorded digests, want %d", w, len(m[w]), seedPool)
		}
	}
}

func TestExpSeedWindow(t *testing.T) {
	for _, c := range []struct {
		seed int64
		i    int
		want int64
	}{
		{1, 0, 1}, {1, 4, 5}, {62, 3, 1}, {64, 0, 0}, {-1, 0, 63}, {1 << 40, 1, 1},
	} {
		if got := expSeed(c.seed, c.i); got != c.want {
			t.Errorf("expSeed(%d, %d) = %d, want %d", c.seed, c.i, got, c.want)
		}
	}
	for _, w := range workloads {
		if n := runsFor(w, 30); n < 5 {
			t.Errorf("%s: %d runs in 30 s, want at least 5 for a median", w, n)
		}
	}
}

func TestParseSeedRange(t *testing.T) {
	for _, c := range []struct {
		in     string
		lo, hi int64
		ok     bool
	}{
		{"7", 7, 7, true}, {"0-40", 0, 40, true}, {"5-4", 0, 0, false}, {"x", 0, 0, false},
	} {
		lo, hi, err := parseSeedRange(c.in)
		if (err == nil) != c.ok || (c.ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("parseSeedRange(%q) = %d, %d, %v", c.in, lo, hi, err)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mittos/internal/sim.(*Engine).RunUntil":              "sim",
		"mittos/internal/cluster.(*HedgedStrategy).Get.func1": "cluster",
		"mittos/internal/oscache.(*Cache).insert":             "oscache",
		"mittos/internal/experiments.runLegs":                 "",
		"mittos/internal/simx.F":                              "",
		"mittos.NewStack":                                     "",
		"runtime.memmove":                                     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building fixture profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	var t [binary.MaxVarintLen64]byte
	b.Write(t[:binary.PutUvarint(t[:], x)])
}

func (b *pb) uint(field int, x uint64) {
	b.varint(uint64(field) << 3)
	b.varint(x)
}

func (b *pb) bytes(field int, p []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}

func (b *pb) packed(field int, xs ...uint64) {
	var in pb
	for _, x := range xs {
		in.varint(x)
	}
	b.bytes(field, in.Bytes())
}

// fixtureProfile encodes a CPU profile whose attribution is known: a
// runtime frame under disk, an engine-only stack, a GC worker, a
// non-layer mittos stack, an inlined oscache frame inside kv, and one
// sample with unpacked location ids.
func fixtureProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.memmove",                         // fn 1
		"mittos/internal/disk.(*Disk).next",       // fn 2
		"mittos/internal/sim.(*Engine).Run",       // fn 3
		"mittos/internal/experiments.runLegs",     // fn 4
		"runtime.gcBgMarkWorker",                  // fn 5
		"mittos/internal/blockio.(*Pool).Get",     // fn 6
		"mittos/internal/kv.(*walGroup).done",     // fn 7
		"mittos/internal/oscache.(*Cache).insert", // fn 8
	}
	var p pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.uint(1, vt[0])
		m.uint(2, vt[1])
		p.bytes(fProfileSampleType, m.Bytes())
	}
	sampleOf := func(ns uint64, packed bool, locs ...uint64) {
		var m pb
		if packed {
			m.packed(fSampleLocation, locs...)
		} else {
			for _, l := range locs {
				m.uint(fSampleLocation, l)
			}
		}
		m.packed(fSampleValue, 1, ns)
		p.bytes(fProfileSample, m.Bytes())
	}
	ms := uint64(time.Millisecond)
	sampleOf(10*ms, true, 1, 2, 3, 4) // memmove inside disk → disk
	sampleOf(20*ms, true, 3, 4)       // engine loop → sim
	sampleOf(30*ms, true, 5)          // GC worker → runtime
	sampleOf(40*ms, true, 6, 4)       // blockio under experiments → other
	sampleOf(50*ms, true, 7, 3, 4)    // oscache inlined into kv → oscache
	sampleOf(60*ms, false, 1, 2)      // unpacked ids → disk
	location := func(id uint64, fns ...uint64) {
		var m pb
		m.uint(fLocationID, id)
		for _, f := range fns {
			var line pb
			line.uint(fLineFunction, f)
			m.bytes(fLocationLine, line.Bytes())
		}
		p.bytes(fProfileLocation, m.Bytes())
	}
	for id := uint64(1); id <= 6; id++ {
		location(id, id)
	}
	location(7, 8, 7) // insert inlined into done: innermost first
	for id := uint64(1); id <= 8; id++ {
		var m pb
		m.uint(fFunctionID, id)
		m.uint(fFunctionName, id+4)
		p.bytes(fProfileFunction, m.Bytes())
	}
	for _, s := range strs {
		p.bytes(fProfileStrings, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestProfileAttributionFixture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fixture.pprof")
	if err := os.WriteFile(path, fixtureProfile(t), 0o644); err != nil {
		t.Fatal(err)
	}
	// Twice the same profile: pooling must not change the shares.
	got, err := profileShares([]string{path, path})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"disk": 70, "sim": 20, "runtime": 30, "other": 40, "oscache": 50}
	for _, l := range profileLayers {
		w := want[l] / 210 * 100
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("self_pct.%s = %.4f, want %.4f", l, got[l], w)
		}
	}
}

// TestProfileAttributionRealProfile decodes a profile written by
// runtime/pprof while the engine spins, so the decoder is checked against
// the encoder Go actually uses.
func TestProfileAttributionRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for half a second")
	}
	path := filepath.Join(t.TempDir(), "real.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		afterFire(shape{}, 1<<16)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := profileShares([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range profileLayers {
		total += got[l]
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("shares sum to %.4f%%, want 100", total)
	}
	// The race detector's runtime frames take a large share under -race, so
	// only require sim to lead the layers by a wide margin.
	if got["sim"] < 10 {
		t.Errorf("self_pct.sim = %.1f%% for an engine-only loop, want at least 10%%", got["sim"])
	}
	for _, l := range profileLayers {
		if l != "sim" && l != "runtime" && got[l] > got["sim"]/4 {
			t.Errorf("self_pct.%s = %.1f%% rivals sim (%.1f%%) in an engine-only loop", l, got[l], got["sim"])
		}
	}
}

// TestMicrosRun times every microbenchmark once at a tiny n: each body must
// run without panicking on a default shape.
func TestMicrosRun(t *testing.T) {
	sh := shapeFrom(map[string]float64{})
	for _, m := range micros {
		if d := m.run(sh, 3); d < 0 {
			t.Errorf("%s: negative time %v", m.name, d)
		}
	}
}

func TestCountsOfEmpty(t *testing.T) {
	c := countsOf(nil)
	for _, s := range countSpecs {
		if v, ok := c[s.name]; !ok || v != 0 {
			t.Errorf("%s = %v, %v; want 0", s.name, v, ok)
		}
	}
}
