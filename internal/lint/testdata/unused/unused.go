// Package unused exercises the unused checker: every declaration named
// dead* or onlyTests, plus recurse, must be flagged, and nothing else.
package unused

import "time"

const deadConst = 1

var deadVar int

type deadType struct{}

func deadFunc() {}

// onlyTests is called from a test file only.
func onlyTests() int { return 1 }

// recurse only calls itself.
func recurse(n int) int {
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

type namer interface{ viaIface() string }

type live struct{}

func (*live) viaIface() string { return "live" }
func (*live) deadMethod()      {}
func (*live) used() int        { return 2 }

// box's get is used only on an instance, which must resolve to it.
type box[T any] struct{ v T }

func (b *box[T]) get() T { return b.v }

// dur is an alias: time.Duration's unexported methods are not this
// package's to report.
type dur = time.Duration

func init() {}

// Exported is the package's entry point; exported names are never flagged.
func Exported() dur {
	var n namer = &live{}
	l := &live{}
	b := &box[int]{v: l.used()}
	return dur(b.get()) + dur(len(n.viaIface()))
}
