// Package ring holds the bounded FIFOs behind the observability
// planes. Buffer is a fixed-capacity ring that overwrites its oldest
// item. Log is a Buffer of sequenced items — the event journal, the
// audit log and the transfer flight recorder — with per-key lifetime
// counts and a cursor that reports eviction gaps exactly once, so a
// poller can always tell "no news" from "news lost".
package ring

import (
	"sync"
	"sync/atomic"
	"time"
)

// Buffer is a fixed-capacity FIFO: when full, Push overwrites the
// oldest item. It is not safe for concurrent use.
type Buffer[T any] struct {
	buf   []T
	start int // index of the oldest item
	n     int // items held
}

// NewBuffer returns an empty buffer holding at most capacity items.
// capacity must be positive.
func NewBuffer[T any](capacity int) *Buffer[T] {
	return &Buffer[T]{buf: make([]T, capacity)}
}

// Push appends v as the newest item. When the buffer was full it
// overwrites the oldest item and returns it with evicted set.
func (b *Buffer[T]) Push(v T) (old T, evicted bool) {
	if b.n < len(b.buf) {
		b.buf[(b.start+b.n)%len(b.buf)] = v
		b.n++
		return old, false
	}
	old = b.buf[b.start]
	b.buf[b.start] = v
	b.start = (b.start + 1) % len(b.buf)
	return old, true
}

// Pop removes and returns the oldest item; ok is false when the
// buffer is empty.
func (b *Buffer[T]) Pop() (v T, ok bool) {
	if b.n == 0 {
		return v, false
	}
	var zero T
	v, b.buf[b.start] = b.buf[b.start], zero
	b.start = (b.start + 1) % len(b.buf)
	b.n--
	return v, true
}

// At returns the i-th oldest item, 0 <= i < Len().
func (b *Buffer[T]) At(i int) T { return b.buf[(b.start+i)%len(b.buf)] }

// Len returns the number of items held.
func (b *Buffer[T]) Len() int { return b.n }

// Cap returns the buffer's capacity.
func (b *Buffer[T]) Cap() int { return len(b.buf) }

// Page is one Since result: the matching items plus the cursor state
// a poller needs to continue without re-delivery or silent gaps.
type Page[T any] struct {
	// Entries are the matching items, oldest first.
	Entries []T `json:"entries"`

	// Next is the cursor for the following Since call: the highest
	// sequence number examined (key-filtered items advance it too), or
	// the request's since value when nothing new exists. Polling with
	// since = Next is exactly-once over retained items.
	Next uint64 `json:"next"`

	// Missed counts items with Seq > since evicted from the ring
	// before this call.
	Missed uint64 `json:"missed"`

	// Evicted is the lifetime ring-eviction total.
	Evicted uint64 `json:"evicted"`

	// Dropped is the lifetime count of items Append discarded because
	// the producer backlog was full — load shedding, distinct from ring
	// eviction.
	Dropped uint64 `json:"dropped"`
}

// pending is an appended item waiting in the backlog with the time it
// was appended.
type pending[T any] struct {
	v  T
	at int64
}

// Log is a bounded, thread-safe stream of sequenced items. Items get
// sequence numbers 1, 2, … in the order they enter the ring, and the
// ring evicts oldest-first, so the retained items always carry the
// consecutive sequence numbers Evicted()+1 … LastSeq().
//
// Items enter through one of two doors. Append never blocks: it puts
// the item on a buffered backlog channel, or drops and counts it when
// the backlog is full, so a hot path never waits on the consumer lock;
// the backlog drains into the ring, in order, whenever the log is
// read. Add takes the lock and stores the item at once, returning its
// sequence number.
//
// A nil *Log is valid and discards everything, so callers never
// nil-check the append path.
type Log[T any] struct {
	stamp   func(v T, seq uint64, now int64) T
	key     func(T) string
	backlog chan pending[T]
	dropped atomic.Uint64

	mu      sync.Mutex
	buf     *Buffer[T]
	evicted uint64
	counts  map[string]uint64
}

// NewLog builds a log retaining up to capacity items behind a backlog
// of up to backlog appended items (zero makes Append drop everything).
// stamp returns the item carrying its sequence number, given the Unix
// nanosecond time it was appended or added; key returns the item's
// kind, the value Since filters on and Counts tallies.
func NewLog[T any](capacity, backlog int, stamp func(v T, seq uint64, now int64) T, key func(T) string) *Log[T] {
	return &Log[T]{
		stamp:   stamp,
		key:     key,
		backlog: make(chan pending[T], backlog),
		buf:     NewBuffer[T](capacity),
		counts:  make(map[string]uint64),
	}
}

// Append queues v without blocking, dropping and counting it when the
// backlog is full.
func (l *Log[T]) Append(v T) {
	if l == nil {
		return
	}
	select {
	case l.backlog <- pending[T]{v, time.Now().UnixNano()}:
	default:
		l.dropped.Add(1)
	}
}

// Add stores v at once, after anything still in the backlog, and
// returns its sequence number (0 for a nil log).
func (l *Log[T]) Add(v T) uint64 {
	if l == nil {
		return 0
	}
	now := time.Now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	return l.putLocked(v, now)
}

func (l *Log[T]) putLocked(v T, now int64) uint64 {
	seq := l.evicted + uint64(l.buf.Len()) + 1
	v = l.stamp(v, seq, now)
	l.counts[l.key(v)]++
	if _, full := l.buf.Push(v); full {
		l.evicted++
	}
	return seq
}

// drainLocked moves backlogged items into the ring. Callers hold l.mu.
func (l *Log[T]) drainLocked() {
	for {
		select {
		case p := <-l.backlog:
			l.putLocked(p.v, p.at)
		default:
			return
		}
	}
}

// Since returns retained items with sequence numbers above since,
// oldest first, keeping only those of the given key when key is
// non-empty, and stopping after limit items (<= 0 means no cap).
func (l *Log[T]) Since(since uint64, key string, limit int) Page[T] {
	page := Page[T]{Entries: []T{}, Next: since}
	if l == nil {
		return page
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	page.Evicted, page.Dropped = l.evicted, l.dropped.Load()
	// Items 1…evicted are gone; whatever the cursor had not yet seen
	// of them was missed. Advancing past the hole reports the loss
	// exactly once.
	if l.evicted > since {
		page.Missed = l.evicted - since
		page.Next = l.evicted
	}
	skip := page.Next - l.evicted
	if skip >= uint64(l.buf.Len()) {
		return page
	}
	for i := int(skip); i < l.buf.Len(); i++ {
		if limit > 0 && len(page.Entries) >= limit {
			break
		}
		v := l.buf.At(i)
		page.Next = l.evicted + uint64(i) + 1
		if key != "" && l.key(v) != key {
			continue
		}
		page.Entries = append(page.Entries, v)
	}
	return page
}

// Counts returns a copy of the per-key lifetime totals of items that
// reached the ring.
func (l *Log[T]) Counts() map[string]uint64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	out := make(map[string]uint64, len(l.counts))
	for k, v := range l.counts {
		out[k] = v
	}
	return out
}

// Dropped returns how many appended items were shed because the
// backlog was full.
func (l *Log[T]) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Len returns the number of retained items.
func (l *Log[T]) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	return l.buf.Len()
}

// Cap returns the ring capacity.
func (l *Log[T]) Cap() int {
	if l == nil {
		return 0
	}
	return l.buf.Cap()
}

// LastSeq returns the highest assigned sequence number (0 before the
// first item).
func (l *Log[T]) LastSeq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	return l.evicted + uint64(l.buf.Len())
}

// Evicted returns how many items the ring has overwritten over the
// log's lifetime.
func (l *Log[T]) Evicted() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	return l.evicted
}
