package kv

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// groupTarget accepts every IO and completes it after a fixed service time.
// When a WAL group (the only deadline-carrying write the fuzzer issues)
// completes, onGroup runs after the store has heard the completion, with
// the group's member count.
type groupTarget struct {
	eng     *sim.Engine
	bs      int
	onGroup func(members int)
}

func (g *groupTarget) SubmitSLO(req *blockio.Request, onDone func(error)) {
	req.SubmitTime = g.eng.Now()
	g.eng.After(time.Millisecond, func() {
		req.CompleteTime = g.eng.Now()
		group := req.Op == blockio.Write && req.Deadline > 0
		members := req.Size / g.bs
		onDone(nil)
		if group {
			g.onGroup(members)
		}
	})
}

// keyModel is the reference for the store's per-key state: the two maps
// the dense arrays replaced, plus the run structure flush and compaction
// build from them.
type keyModel struct {
	memtable map[int64]bool
	versions map[int64]uint64
	runs     [][]int64 // sorted keys, newest first
	durable  []int64   // PutDurable keys awaiting their group, FIFO
	cap      int
	maxRuns  int
}

// write mirrors one applied write, including the flush (and compaction) it
// triggers.
func (m *keyModel) write(key int64) {
	m.memtable[key] = true
	m.versions[key]++
	if len(m.memtable) < m.cap {
		return
	}
	run := make([]int64, 0, len(m.memtable))
	for k := range m.memtable {
		run = append(run, k)
	}
	slices.Sort(run)
	m.memtable = map[int64]bool{}
	m.runs = append([][]int64{run}, m.runs...)
	if len(m.runs) > m.maxRuns {
		var union []int64
		for _, r := range m.runs {
			union = append(union, r...)
		}
		slices.Sort(union)
		m.runs = [][]int64{slices.Compact(union)}
	}
}

// check compares the store's memtable membership and versions for every key
// of [-1, hi] and its runs' keys with the model.
func (m *keyModel) check(s *Store, hi int64) error {
	n := 0
	for k := int64(-1); k <= hi; k++ {
		if got, want := s.inMemtable(k), m.memtable[k]; got != want {
			return fmt.Errorf("key %d: in memtable %v, model %v", k, got, want)
		}
		if got, want := s.Version(k), m.versions[k]; got != want {
			return fmt.Errorf("key %d: version %d, model %d", k, got, want)
		}
		if m.memtable[k] {
			n++
		}
	}
	if s.memN != n || len(m.memtable) != n {
		return fmt.Errorf("memtable holds %d keys (model %d, %d in range)", s.memN, len(m.memtable), n)
	}
	if len(s.runs) != len(m.runs) {
		return fmt.Errorf("store has %d runs, model %d", len(s.runs), len(m.runs))
	}
	for i, r := range s.runs {
		want := m.runs[i]
		if r.n != int64(len(want)) {
			return fmt.Errorf("run %d holds %d keys, model %d", i, r.n, len(want))
		}
		for j, k := range want {
			if got := r.key(int64(j)); got != k {
				return fmt.Errorf("run %d key %d = %d, model %d", i, j, got, k)
			}
		}
	}
	return nil
}

// FuzzKVKeyState drives the store's dense per-key state (memtable bitset,
// version array) against the two maps it replaced. Each op is three bytes:
// a kind, a key byte and an argument. Keys fall inside the preloaded range
// or past it (inserts that grow the arrays). Plain puts apply at once;
// durable puts apply when their WAL group completes, member by member, as
// the store applies them. A small memtable and MaxRuns 2 make flushes and
// compactions frequent; every flushed run must hold the model's sorted
// memtable keys.
func FuzzKVKeyState(f *testing.F) {
	f.Add([]byte{10, 0, 1, 0, 1, 2, 0, 65, 1, 3, 1, 0, 4, 0, 0})
	f.Add([]byte{0, 0x80, 7, 1, 0x81, 9, 1, 0xC1, 200, 5, 0, 3, 3, 0x80, 7, 2, 0x81, 4})
	f.Add([]byte{200, 5, 0xff, 40, 5, 0xbf, 3, 5, 0x83, 60, 4, 0, 0, 2, 0xa0, 9, 3, 0xa0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		preload := int64(data[0]) * 3
		data = data[1:]
		eng := sim.NewEngine()
		cfg := DefaultConfig(0, 100<<30)
		cfg.MemtableCap, cfg.MaxRuns, cfg.StallBytes = 16, 2, 0
		m := &keyModel{memtable: map[int64]bool{}, versions: map[int64]uint64{},
			cap: cfg.MemtableCap, maxRuns: cfg.MaxRuns}
		tgt := &groupTarget{eng: eng, bs: cfg.BlockSize}
		var ids blockio.IDGen
		s := New(eng, cfg, tgt, &ids)
		s.Preload(preload)
		if preload > 0 {
			m.runs = [][]int64{make([]int64, preload)}
			for k := range m.runs[0] {
				m.runs[0][k] = int64(k)
			}
		}
		hi := preload + 8*256
		tgt.onGroup = func(members int) {
			if members > len(m.durable) {
				t.Fatalf("WAL group of %d members, %d durable puts pending", members, len(m.durable))
			}
			for _, k := range m.durable[:members] {
				m.write(k)
			}
			m.durable = m.durable[members:]
			if err := m.check(s, hi); err != nil {
				t.Fatalf("after a WAL group of %d: %v", members, err)
			}
		}
		for ; len(data) >= 3; data = data[3:] {
			kind, kb, arg := data[0], data[1], data[2]
			key := int64(kb & 0x7f)
			if kb&0x80 != 0 {
				key += preload + 256*int64(kb>>5&3) // an insert past the preload
			}
			switch kind % 6 {
			case 0:
				s.Put(key, func(error) {})
				m.write(key)
			case 1:
				s.PutDurable(key, time.Second, func(err error) {
					if err != nil {
						t.Fatalf("durable put of %d: %v", key, err)
					}
				})
				m.durable = append(m.durable, key)
			case 2:
				v := m.versions[key] + uint64(arg%4)
				if arg&0x80 != 0 && v > 0 {
					v-- // stale: must not win
				}
				s.ApplyReplicated(key, v)
				m.versions[key] = max(m.versions[key], v)
			case 3:
				if arg&1 != 0 {
					key = -1 - int64(arg>>1) // never written: a miss
				}
				want := m.memtable[key]
				var called, ok bool
				req := s.Get(key, 0, func(err error) {
					called, ok = true, err == nil
					if err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatalf("Get(%d): %v", key, err)
					}
				})
				eng.Run()
				if !called {
					t.Fatalf("Get(%d) never completed", key)
				}
				// Served from memory: no read IO was issued, and no miss.
				got := req == nil && ok
				if req != nil {
					req.Release()
				}
				if got != want {
					t.Fatalf("Get(%d) served from memory = %v, model says %v", key, got, want)
				}
			case 4:
				eng.Run()
				if len(m.durable) != 0 {
					t.Fatalf("%d durable puts still pending after the drain", len(m.durable))
				}
			case 5:
				// A burst of sequential inserts past the preload, the shape
				// YCSB's insert stream has.
				for i := int64(0); i < int64(arg%32); i++ {
					k := preload + int64(kb)*4 + i
					s.Put(k, func(error) {})
					m.write(k)
				}
			}
			if err := m.check(s, hi); err != nil {
				t.Fatalf("after op %d on key %d: %v", kind%6, key, err)
			}
		}
		eng.Run()
		if err := m.check(s, hi); err != nil {
			t.Fatalf("after the final drain: %v", err)
		}
	})
}
