// Package des is the discrete-event kernel of the load, autoscale and
// cluster engines: one typed event queue with a total, deterministic pop
// order. Each engine declares its event classes once, in a const block,
// in the order events at the same instant must run.
package des

import "fmt"

// Queue is a binary min-heap of pending events carrying values of type
// T, ordered by (time, class, id) and then by push order. Time never
// runs backwards: an engine that schedules an event before the last one
// popped has a bug, and Push panics. The zero value is an empty queue.
type Queue[T any] struct {
	items []item[T]
	seq   uint64 // pushes so far: the last tie-break
	now   uint64 // time of the last Pop
}

type item[T any] struct {
	at, seq   uint64
	class, id int
	v         T
}

// Push schedules v at time at.
func (q *Queue[T]) Push(at uint64, class, id int, v T) {
	if at < q.now {
		panic(fmt.Sprintf("des: event at %d pushed after the clock reached %d", at, q.now))
	}
	q.items = append(q.items, item[T]{at: at, seq: q.seq, class: class, id: id, v: v})
	q.seq++
	q.up(len(q.items) - 1)
}

// Pop removes the earliest event and returns its time and value. It
// panics on an empty queue.
func (q *Queue[T]) Pop() (uint64, T) {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = item[T]{} // drop the value's references
	q.items = q.items[:last]
	q.down(0)
	q.now = top.at
	return top.at, top.v
}

// Len reports the number of pending events.
func (q *Queue[T]) Len() int { return len(q.items) }

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.class != b.class:
		return a.class < b.class
	case a.id != b.id:
		return a.id < b.id
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			return
		}
		q.items[i], q.items[c] = q.items[c], q.items[i]
		i = c
	}
}
