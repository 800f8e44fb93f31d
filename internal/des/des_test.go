package des

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refEvent is one pending event of the reference model.
type refEvent struct {
	at        uint64
	class, id int
	seq       int
}

func (a refEvent) before(b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.seq < b.seq
}

// TestQueueMatchesReferenceModel drives the queue with random pushes and
// pops, never earlier than the last pop, and checks every pop against a
// linear scan for the smallest (time, class, id, push order). Times,
// classes and ids come from small ranges so most pops settle a tie.
func TestQueueMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var model []refEvent
	now, seq := uint64(0), 0
	pop := func() {
		best := 0
		for i := range model {
			if model[i].before(model[best]) {
				best = i
			}
		}
		want := model[best]
		model = append(model[:best], model[best+1:]...)
		at, v := q.Pop()
		if at != want.at || v != want.seq {
			t.Fatalf("pop %d: got (at %d, push %d), want (at %d, class %d, id %d, push %d)",
				seq, at, v, want.at, want.class, want.id, want.seq)
		}
		now = at
	}
	for round := 0; round < 40; round++ {
		// Alternate growing and draining phases so the heap reaches a
		// few hundred events as well as single digits.
		pushBias := 2
		if round%2 == 1 {
			pushBias = 1
		}
		for step := 0; step < 500; step++ {
			if len(model) == 0 || rng.Intn(pushBias+1) > 0 {
				ev := refEvent{at: now + uint64(rng.Intn(6)), class: rng.Intn(3), id: rng.Intn(4), seq: seq}
				seq++
				model = append(model, ev)
				q.Push(ev.at, ev.class, ev.id, ev.seq)
			} else {
				pop()
			}
			if q.Len() != len(model) {
				t.Fatalf("Len %d, model holds %d", q.Len(), len(model))
			}
		}
	}
	for len(model) > 0 {
		pop()
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue reports Len %d", q.Len())
	}
}

// TestPushIntoThePastPanics: an event at the current instant is fine, an
// event before it is an engine bug.
func TestPushIntoThePastPanics(t *testing.T) {
	var q Queue[string]
	q.Push(10, 0, 0, "a")
	q.Pop()
	q.Push(10, 0, 0, "same instant")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("push before the last pop did not panic")
		}
		if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "des: ") {
			t.Fatalf("panic %q does not name the des package", msg)
		}
	}()
	q.Push(9, 0, 0, "past")
}

// BenchmarkQueue times one pop and one push with n events pending: the
// steady state of an engine whose every event schedules one more.
func BenchmarkQueue(b *testing.B) {
	type payload [4]uint64 // the size of a typical engine event value
	for _, n := range []int{1e3, 1e4, 1e5, 1e6} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			gaps := make([]uint64, 1<<16)
			for i := range gaps {
				gaps[i] = uint64(rng.Int63n(int64(n)))
			}
			var q Queue[payload]
			for i := 0; i < n; i++ {
				q.Push(gaps[i%len(gaps)], i%3, i, payload{uint64(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, v := q.Pop()
				q.Push(at+gaps[i%len(gaps)], int(v[0]%3), int(v[0]), v)
			}
		})
	}
}
