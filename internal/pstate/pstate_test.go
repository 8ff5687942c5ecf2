package pstate

import (
	"fmt"
	"testing"

	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

func newDomain() *Domain { return NewDomain(uarch.E52680v3()) }

func TestRequestClamping(t *testing.T) {
	d := newDomain()
	if got := d.Request(800); got != 1200 {
		t.Errorf("below-min request -> %v, want 1200", got)
	}
	if got := d.Request(2500); got != 2500 {
		t.Errorf("base request -> %v", got)
	}
	if got := d.Request(3300); got != 2501 {
		t.Errorf("turbo request -> %v, want turbo setting 2501", got)
	}
	if d.Requested() != 2501 {
		t.Errorf("Requested = %v", d.Requested())
	}
}

func TestTransitionLifecycle(t *testing.T) {
	d := newDomain()
	if d.Granted() != 1200 {
		t.Fatalf("initial grant = %v", d.Granted())
	}
	if !d.Begin(100, 500, 1300, 21) {
		t.Fatal("Begin returned false for a real change")
	}
	if tgt, ok := d.InFlight(); !ok || tgt != 1300 {
		t.Fatalf("InFlight = %v,%v", tgt, ok)
	}
	// Too early: nothing happens.
	if _, ok := d.Complete(510); ok {
		t.Fatal("completed before switch time")
	}
	if d.Granted() != 1200 {
		t.Fatal("granted changed early")
	}
	done, ok := d.Complete(521)
	if !ok {
		t.Fatal("did not complete at switch end")
	}
	if d.Granted() != 1300 {
		t.Fatalf("granted = %v, want 1300", d.Granted())
	}
	tr, ok := d.LastTransition()
	if !ok {
		t.Fatal("no transition recorded")
	}
	if done != tr {
		t.Errorf("Complete returned %+v, LastTransition %+v", done, tr)
	}
	if tr.Latency() != 421 {
		t.Errorf("latency = %v, want 421 (request 100 -> complete 521)", tr.Latency())
	}
	if tr.SwitchTime() != 21 {
		t.Errorf("switch time = %v, want 21", tr.SwitchTime())
	}
	if tr.From != 1200 || tr.To != 1300 {
		t.Errorf("transition %v -> %v", tr.From, tr.To)
	}
}

func TestBeginNoOpForSameFrequency(t *testing.T) {
	d := newDomain()
	if d.Begin(0, 0, 1200, 21) {
		t.Fatal("transition to current frequency should be a no-op")
	}
	if _, ok := d.InFlight(); ok {
		t.Fatal("no-op started a transition")
	}
	if _, ok := d.LastTransition(); ok {
		t.Fatal("no-op recorded a transition")
	}
}

func TestIncompleteTransitionsNotListed(t *testing.T) {
	d := newDomain()
	d.Begin(0, 0, 2000, 21)
	if _, ok := d.LastTransition(); ok {
		t.Fatal("LastTransition returned an incomplete transition")
	}
	d.Complete(21)
	want := Transition{CompletedAt: 21, From: 1200, To: 2000}
	if tr, ok := d.LastTransition(); !ok || tr != want {
		t.Fatalf("LastTransition = %+v,%v, want %+v", tr, ok, want)
	}
	// A second transition in flight leaves the completed one reported.
	d.Begin(100, 100, 1500, 21)
	if tr, ok := d.LastTransition(); !ok || tr != want {
		t.Fatalf("LastTransition during the next transition = %+v,%v, want %+v", tr, ok, want)
	}
}

func TestLastTransitionAfterManyTransitions(t *testing.T) {
	d := newDomain()
	now := sim.Time(0)
	var want Transition
	for i := 0; i < 5000; i++ {
		target := uarch.MHz(1200 + 100*(i%2+1)) // alternate 1300/1400
		want = Transition{RequestedAt: now, GrantedAt: now, CompletedAt: now + 10,
			From: d.Granted(), To: target}
		d.Begin(now, now, target, 10)
		now += 20
		d.Complete(now)
		now += 20
	}
	if tr, ok := d.LastTransition(); !ok || tr != want {
		t.Fatalf("after 5000 transitions LastTransition = %+v,%v, want the 5000th %+v", tr, ok, want)
	}
}

func TestCompletionTime(t *testing.T) {
	d := newDomain()
	if _, ok := d.CompletionTime(); ok {
		t.Fatal("no transition should be in flight initially")
	}
	d.Begin(0, 100, 1500, 25)
	at, ok := d.CompletionTime()
	if !ok || at != 125 {
		t.Fatalf("CompletionTime = %v,%v want 125,true", at, ok)
	}
}

// FuzzLastTransition drives Domain and the transition ring it replaced
// (refDomain, ring_ref_test.go) through the same script and requires
// LastTransition, InFlight, Granted and CompletionTime to agree after
// every operation, and each record Complete returns to be the ring's
// newest transition whenever it completed after time zero. Each operation is two bytes, an opcode and an
// argument; the opcode's top bit picks one of two domain slots, so
// value copies and independent evolution of the copies are exercised.
// Scripts stop at maxFuzzOps: below the ring's 4096-entry bound, and
// short enough that the ring's O(n) LastTransition keeps fuzzing fast.
func FuzzLastTransition(f *testing.F) {
	for _, seed := range [][]byte{
		{0x00, 0x01, 0x03, 0x00},             // 1300 MHz, zero switch at t=0: CompletedAt == 0
		{0x00, 0x00},                         // same-frequency no-op
		{0x00, 0x09, 0x02, 0x00, 0x03, 0x00}, // begin, complete early, complete on time
		{0x00, 0x0a, 0x01, 0x13, 0x03, 0x00}, // retarget in flight, then land
		{0x04, 0x40, 0x00, 0x09, 0x05, 0x00, 0x83, 0x00, 0x00, 0x0a, 0x03, 0x00}, // copy, diverge
	} {
		f.Add(seed)
	}
	for i := uint64(0); i < 15; i++ {
		rng := sim.NewRNG(i)
		b := make([]byte, 64+rng.Intn(192))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		runLastTransitionScript(t, script)
	})
}

const maxFuzzOps = 256

func runLastTransitionScript(t *testing.T, script []byte) {
	t.Helper()
	spec := uarch.E52680v3()
	targets := []uarch.MHz{spec.MinMHz, 1300, 1400, 2000, 2500, 2900, 1800, 1500}
	switches := []sim.Time{0, 1, 21, 500}
	d := [2]Domain{*NewDomain(spec), *NewDomain(spec)}
	r := [2]*refDomain{newRefDomain(spec), newRefDomain(spec)}
	now := sim.Time(0)
	for i := 0; i+1 < len(script) && i/2 < maxFuzzOps; i += 2 {
		op, arg := script[i], script[i+1]
		s := int(op >> 7)
		var got, want bool
		var what string
		var done Transition // Complete's returned record
		switch (op & 0x7f) % 6 {
		case 0, 1:
			target := targets[arg&7]
			sw := switches[(arg>>3)&3]
			req := now - sim.Time(arg>>5)
			if req < 0 {
				req = 0
			}
			what = fmt.Sprintf("Begin(%v, %v, %v, %v)", req, now, target, sw)
			got, want = d[s].Begin(req, now, target, sw), r[s].Begin(req, now, target, sw)
		case 2: // just before the pending completion instant
			at := now
			if c, ok := d[s].CompletionTime(); ok && c > 0 {
				at = c - 1
			}
			what = fmt.Sprintf("Complete(%v)", at)
			done, got = d[s].Complete(at)
			want = r[s].Complete(at)
		case 3: // at the pending completion instant, moving the clock there
			if c, ok := d[s].CompletionTime(); ok && c > now {
				now = c
			}
			what = fmt.Sprintf("Complete(%v)", now)
			done, got = d[s].Complete(now)
			want = r[s].Complete(now)
		case 4:
			now += sim.Time(arg)
			what = fmt.Sprintf("advance to %v", now)
		case 5:
			d[1-s] = d[s]
			r[1-s] = r[s].Clone()
			what = fmt.Sprintf("copy slot %d over slot %d", s, 1-s)
		}
		if got != want {
			t.Fatalf("op %d slot %d %s returned %v, ring returned %v", i/2, s, what, got, want)
		}
		if !got && done != (Transition{}) {
			t.Fatalf("op %d slot %d %s completed nothing but returned %+v", i/2, s, what, done)
		}
		if done.CompletedAt != 0 {
			if newest, ok := r[s].LastTransition(); !ok || done != newest {
				t.Fatalf("op %d slot %d %s returned %+v, ring's newest transition is %+v,%v",
					i/2, s, what, done, newest, ok)
			}
		}
		for k := range d {
			gt, gok := d[k].LastTransition()
			wt, wok := r[k].LastTransition()
			gf, gfl := d[k].InFlight()
			wf, wfl := r[k].InFlight()
			gc, gcl := d[k].CompletionTime()
			wc, wcl := r[k].CompletionTime()
			if gt != wt || gok != wok || gf != wf || gfl != wfl || gc != wc || gcl != wcl ||
				d[k].Granted() != r[k].Granted() {
				t.Fatalf("after op %d (slot %d %s), slot %d diverges:\n"+
					" domain last %+v,%v in flight %v,%v completes %v,%v granted %v\n"+
					" ring   last %+v,%v in flight %v,%v completes %v,%v granted %v",
					i/2, s, what, k, gt, gok, gf, gfl, gc, gcl, d[k].Granted(),
					wt, wok, wf, wfl, wc, wcl, r[k].Granted())
			}
		}
	}
}
