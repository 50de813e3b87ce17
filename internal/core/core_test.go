package core

import (
	"errors"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

func TestBusyErrorUnwrapsToErrBusy(t *testing.T) {
	err := &BusyError{PredictedWait: 20 * time.Millisecond}
	if !errors.Is(err, blockio.ErrBusy) {
		t.Fatal("BusyError does not unwrap to ErrBusy")
	}
	if !IsBusy(err) {
		t.Fatal("IsBusy(BusyError) = false")
	}
	if IsBusy(errors.New("other")) {
		t.Fatal("IsBusy(other) = true")
	}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestAccuracyRates(t *testing.T) {
	a := Accuracy{TruePos: 10, TrueNeg: 80, FalsePos: 4, FalseNeg: 6}
	if a.Total() != 100 {
		t.Fatalf("Total = %d", a.Total())
	}
	if got := a.FalsePosRate(); got != 0.04 {
		t.Fatalf("FalsePosRate = %v", got)
	}
	if got := a.FalseNegRate(); got != 0.06 {
		t.Fatalf("FalseNegRate = %v", got)
	}
	if got := a.InaccuracyRate(); got != 0.10 {
		t.Fatalf("InaccuracyRate = %v", got)
	}
	var empty Accuracy
	if empty.FalsePosRate() != 0 || empty.FalseNegRate() != 0 ||
		empty.InaccuracyRate() != 0 || empty.MeanAbsDiff() != 0 {
		t.Fatal("empty accuracy should be all-zero")
	}
}

func TestDeciderObserve(t *testing.T) {
	d := kernel{thop: time.Millisecond}
	deadline := 10 * time.Millisecond
	// busy verdict + actual violation = TP
	d.observe(true, 20*time.Millisecond, 20*time.Millisecond, deadline)
	// busy verdict + actual OK = FP
	d.observe(true, 20*time.Millisecond, 5*time.Millisecond, deadline)
	// accept verdict + violation = FN
	d.observe(false, time.Millisecond, 30*time.Millisecond, deadline)
	// accept verdict + OK = TN
	d.observe(false, time.Millisecond, 2*time.Millisecond, deadline)
	a := d.acc
	if a.TruePos != 1 || a.FalsePos != 1 || a.FalseNeg != 1 || a.TrueNeg != 1 {
		t.Fatalf("accuracy matrix = %+v", a)
	}
	if a.MeanAbsDiff() == 0 {
		t.Fatal("MeanAbsDiff not accumulated")
	}
}

func TestDeciderInjection(t *testing.T) {
	rng := sim.NewRNG(1, "inj")
	d := kernel{injFN: 1.0, injRNG: rng}
	if d.rejects(true) {
		t.Fatal("100% false-negative injection should suppress rejection")
	}
	d = kernel{injFP: 1.0, injRNG: rng}
	if !d.rejects(false) {
		t.Fatal("100% false-positive injection should force rejection")
	}
	d = kernel{}
	if !d.rejects(true) || d.rejects(false) {
		t.Fatal("no injection should be identity")
	}
}

func TestDeciderThreshold(t *testing.T) {
	d := kernel{thop: 300 * time.Microsecond}
	if d.threshold(20*time.Millisecond) != 20*time.Millisecond+300*time.Microsecond {
		t.Fatal("threshold must add Thop")
	}
}

func TestVanillaPassthrough(t *testing.T) {
	eng := sim.NewEngine()
	dev := &stubDevice{eng: eng, delay: time.Millisecond}
	v := &Vanilla{Dev: dev}
	var got error = errors.New("sentinel")
	r := &blockio.Request{Op: blockio.Read, Offset: 0, Size: 4096,
		Deadline: time.Nanosecond} // deadline must be ignored
	v.SubmitSLO(r, func(err error) { got = err })
	eng.Run()
	if got != nil {
		t.Fatalf("vanilla returned %v", got)
	}
}

func TestClampDur(t *testing.T) {
	if clampDur(10, 0, 5) != 5 || clampDur(-10, 0, 5) != 0 || clampDur(3, 0, 5) != 3 {
		t.Fatal("clampDur broken")
	}
}

// stubDevice completes after a fixed delay.
type stubDevice struct {
	eng      *sim.Engine
	delay    time.Duration
	inflight int
}

func (s *stubDevice) Submit(req *blockio.Request) {
	s.inflight++
	req.DispatchTime = s.eng.Now()
	s.eng.Schedule(s.delay, func() {
		s.inflight--
		req.CompleteTime = s.eng.Now()
		if req.OnComplete != nil {
			req.OnComplete(req)
		}
	})
}
func (s *stubDevice) InFlight() int { return s.inflight }
