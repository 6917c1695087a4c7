package fault

import (
	"testing"

	"charmgo/internal/sim"
)

// shrinkFuzzMaxOps bounds a fuzzed schedule; Shrink's removal pass is
// quadratic in the op count.
const shrinkFuzzMaxOps = 24

// fuzzSchedule decodes five bytes per op: the time, the kind, the PE and
// a 16-bit duration scaled up so the halving pass has work to do.
func fuzzSchedule(data []byte) Schedule {
	var s Schedule
	for len(data) >= 5 && len(s.Ops) < shrinkFuzzMaxOps {
		s.Ops = append(s.Ops, Op{
			At:   sim.Time(data[0]) * 16,
			Kind: Kind(data[1]) % numKinds,
			Src:  int(data[2] % 8),
			Dst:  int(data[2] / 8 % 8),
			Arg:  int(data[2] >> 6),
			Dur:  1 + sim.Time(uint16(data[3])|uint16(data[4])<<8)<<4,
		})
		data = data[5:]
	}
	sortOps(s.Ops)
	return s
}

// FuzzShrinkIdempotent shrinks a fuzzed schedule under a fuzzed failure
// witness. Its structural part mixes op kinds (at least need ops of the
// kinds in the mask) and durations (some op longer than minDur), so both
// of Shrink's passes engage. That part is monotone, and one pass of each
// reaches a fixpoint under it; a non-zero salt also flips the verdict on
// about one schedule in eight by a hash, so halving a duration can make a
// removal fail and only Shrink's loop to a fixpoint keeps it idempotent.
// Shrinking must keep a failing schedule failing, keep each surviving op
// in order with its duration no longer than before, and be idempotent:
// re-shrinking the result returns it unchanged.
func FuzzShrinkIdempotent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, kinds, need uint8, minDur uint16, salt uint8) {
		s := fuzzSchedule(data)
		need = need%4 + 1
		fails := func(trial Schedule) bool {
			n, long := uint8(0), false
			h := uint64(salt)
			for _, o := range trial.Ops {
				if kinds&(1<<uint(o.Kind)) != 0 {
					n++
				}
				if o.Dur > sim.Time(minDur) {
					long = true
				}
				h = sim.Mix(h ^ uint64(o.At)<<32 ^ uint64(o.Dur)<<8 ^ uint64(o.Kind))
			}
			return (n >= need && long) != (salt != 0 && h%8 == 0)
		}
		once := Shrink(s, fails)
		if fails(s) && !fails(once) {
			t.Fatalf("Shrink lost the failure witness:\n%s\nshrank to\n%s", s, once)
		}
		j := 0
		for _, o := range once.Ops {
			for j < len(s.Ops) && !(sameOpBut(s.Ops[j], o) && o.Dur <= s.Ops[j].Dur) {
				j++
			}
			if j == len(s.Ops) || o.Dur < 1 {
				t.Fatalf("shrunk op %s is not an in-order, no-longer op of\n%s", o, s)
			}
			j++
		}
		if twice := Shrink(once, fails); twice.String() != once.String() {
			t.Fatalf("Shrink not idempotent:\n%s\nvs\n%s", once, twice)
		}
	})
}

// sameOpBut reports whether a and b are the same op apart from Dur.
func sameOpBut(a, b Op) bool {
	a.Dur = b.Dur
	return a == b
}
