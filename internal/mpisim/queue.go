package mpisim

// queue is a posting-order list of receives or messages keyed by (src,
// tag): a rank's posted receives, its messages on the wire from its engine
// and its delivered ones. Each slot carries its key inline next to its
// value, so a match compares keys without following a pointer. take marks
// the first live match gone instead of shifting what follows, and a scan
// starts past the gone prefix; once half the slots are gone the queue
// compacts, order kept, so a removal costs amortised O(1) and a scan
// crosses no more gone slots than live ones. A gone slot keeps its value
// until compaction clears it. The zero value is an empty queue.
type queue[T any] struct {
	slots      []slot[T]
	head, gone int // every slot before head is gone
}

type slot[T any] struct {
	src, tag int
	live     bool
	v        T
}

// push appends v under (src, tag).
func (q *queue[T]) push(src, tag int, v T) {
	q.slots = append(q.slots, slot[T]{src: src, tag: tag, live: true, v: v})
}

// take removes and returns the earliest-posted live value under (src, tag).
func (q *queue[T]) take(src, tag int) (v T, ok bool) {
	for i := q.head; i < len(q.slots); i++ {
		if s := &q.slots[i]; s.live && s.src == src && s.tag == tag {
			v, s.live = s.v, false
			for q.head < len(q.slots) && !q.slots[q.head].live {
				q.head++
			}
			if q.gone++; 2*q.gone >= len(q.slots) {
				q.compact()
			}
			return v, true
		}
	}
	return v, false
}

// compact moves the live slots to the front in order and clears the rest,
// so the backing array holds no reference to a taken value.
func (q *queue[T]) compact() {
	n := 0
	for i := q.head; i < len(q.slots); i++ {
		if q.slots[i].live {
			if i != n {
				q.slots[n] = q.slots[i]
			}
			n++
		}
	}
	clear(q.slots[n:])
	q.slots, q.head, q.gone = q.slots[:n], 0, 0
}
