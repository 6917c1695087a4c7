package lrts

import (
	"errors"
	"testing"
	"unsafe"

	"charmgo/internal/sim"
)

func TestErrUnsupportedIsComparable(t *testing.T) {
	var err error = ErrUnsupported
	if !errors.Is(err, ErrUnsupported) {
		t.Fatal("ErrUnsupported does not match itself")
	}
	if err.Error() == "" {
		t.Fatal("ErrUnsupported has no message")
	}
}

// releaseRecorder is a test BufReleaser capturing the call it receives.
type releaseRecorder struct {
	calls      int
	pe, cap    int
	registered bool
}

func (r *releaseRecorder) ReleaseBuf(pe, capacity int, registered bool) sim.Time {
	r.calls++
	r.pe, r.cap, r.registered = pe, capacity, registered
	return 42
}

func TestMessageReleaseContract(t *testing.T) {
	rec := &releaseRecorder{}
	msg := &Message{
		Data: "x", Size: 128, SrcPE: 1, DstPE: 2, Handler: 3,
		ReleaseBy: rec, ReleasePE: 2, ReleaseCap: 256, ReleaseRegistered: true,
	}
	if cost := msg.ReleaseBy.ReleaseBuf(msg.ReleasePE, msg.ReleaseCap, msg.ReleaseRegistered); cost != 42 {
		t.Fatalf("ReleaseBuf cost = %v", cost)
	}
	if rec.calls != 1 || rec.pe != 2 || rec.cap != 256 || !rec.registered {
		t.Fatalf("ReleaseBuf saw %+v", rec)
	}
	// The scheduler nils ReleaseBy after invoking it; the zero value must be
	// safe for messages without buffers.
	plain := &Message{}
	if plain.ReleaseBy != nil {
		t.Fatal("zero-value message has a release hook")
	}
}

// TestMessageSizeClass pins the envelope in the 112-byte allocation size
// class: every send acquires one from the converse pool, and the entry
// header (Elem, Entry) must ride in its padding rather than push the
// record into the next class.
func TestMessageSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size > 112 {
		t.Fatalf("unsafe.Sizeof(lrts.Message{}) = %d, want <= 112", size)
	}
}
