package ring

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

type item struct {
	Seq  uint64
	Time int64
	Op   string
	N    int
}

func newItemLog(capacity, backlog int) *Log[item] {
	return NewLog(capacity, backlog,
		func(it item, seq uint64, now int64) item { it.Seq, it.Time = seq, now; return it },
		func(it item) string { return it.Op })
}

func TestBufferPushPopAt(t *testing.T) {
	b := NewBuffer[int](3)
	for i := 1; i <= 3; i++ {
		if _, ev := b.Push(i); ev {
			t.Fatalf("push %d evicted below capacity", i)
		}
	}
	if old, ev := b.Push(4); !ev || old != 1 {
		t.Fatalf("push past capacity = (%d, %v), want (1, true)", old, ev)
	}
	if b.Len() != 3 || b.Cap() != 3 {
		t.Fatalf("len/cap = %d/%d, want 3/3", b.Len(), b.Cap())
	}
	var got []int
	for i := 0; i < b.Len(); i++ {
		got = append(got, b.At(i))
	}
	if !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("in-order items = %v, want [2 3 4]", got)
	}
	if v, ok := b.Pop(); !ok || v != 2 {
		t.Fatalf("pop = (%d, %v), want (2, true)", v, ok)
	}
	b.Push(5)
	for _, want := range []int{3, 4, 5} {
		if v, ok := b.Pop(); !ok || v != want {
			t.Fatalf("pop = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	if _, ok := b.Pop(); ok || b.Len() != 0 {
		t.Fatal("pop from empty buffer succeeded")
	}
}

// TestLogSince runs the cursor semantics shared by every Log: each
// case appends ops (a, b, a, b, …) into a ring of the given capacity
// and checks one Since page.
func TestLogSince(t *testing.T) {
	cases := []struct {
		name              string
		capacity, appends int
		since             uint64
		key               string
		limit             int
		want              []uint64 // seqs returned
		next, missed      uint64
	}{
		{name: "all", capacity: 8, appends: 5, want: []uint64{1, 2, 3, 4, 5}, next: 5},
		{name: "resume", capacity: 8, appends: 5, since: 3, want: []uint64{4, 5}, next: 5},
		{name: "caught up", capacity: 8, appends: 5, since: 5, want: []uint64{}, next: 5},
		{name: "empty log", capacity: 8, want: []uint64{}},
		{name: "cursor past end", capacity: 8, appends: 2, since: 1 << 63, want: []uint64{}, next: 1 << 63},
		// Filtered-out items still advance Next so a filtered poller
		// does not re-examine them.
		{name: "key filter", capacity: 8, appends: 4, key: "a", want: []uint64{1, 3}, next: 4},
		{name: "key filter no match", capacity: 8, appends: 4, key: "c", want: []uint64{}, next: 4},
		{name: "limit", capacity: 8, appends: 6, limit: 2, want: []uint64{1, 2}, next: 2},
		{name: "limit counts matches", capacity: 8, appends: 6, key: "b", limit: 2, want: []uint64{2, 4}, next: 4},
		{name: "eviction missed", capacity: 4, appends: 10, want: []uint64{7, 8, 9, 10}, next: 10, missed: 6},
		{name: "eviction partly seen", capacity: 4, appends: 10, since: 4, want: []uint64{7, 8, 9, 10}, next: 10, missed: 2},
		{name: "eviction with limit", capacity: 4, appends: 10, since: 2, limit: 1, want: []uint64{7}, next: 7, missed: 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newItemLog(c.capacity, 16)
			for i := 0; i < c.appends; i++ {
				l.Add(item{Op: string(rune('a' + i%2)), N: i})
			}
			page := l.Since(c.since, c.key, c.limit)
			got := []uint64{}
			for _, it := range page.Entries {
				got = append(got, it.Seq)
				if it.Time == 0 || it.N != int(it.Seq)-1 {
					t.Errorf("item %+v not stamped in order", it)
				}
			}
			if !reflect.DeepEqual(got, c.want) || page.Next != c.next || page.Missed != c.missed {
				t.Fatalf("page = seqs %v next %d missed %d, want %v next %d missed %d",
					got, page.Next, page.Missed, c.want, c.next, c.missed)
			}
			if want := uint64(max(c.appends-c.capacity, 0)); page.Evicted != want {
				t.Fatalf("evicted = %d, want %d", page.Evicted, want)
			}
			// The loss is reported once: resuming from Next misses
			// nothing more.
			if again := l.Since(page.Next, c.key, c.limit); again.Missed != 0 {
				t.Fatalf("resumed page missed %d again", again.Missed)
			}
		})
	}
}

func TestLogAddReturnsSeq(t *testing.T) {
	l := newItemLog(2, 0)
	for want := uint64(1); want <= 5; want++ {
		if seq := l.Add(item{Op: "a"}); seq != want {
			t.Fatalf("add returned seq %d, want %d", seq, want)
		}
	}
	if l.LastSeq() != 5 || l.Evicted() != 3 || l.Len() != 2 || l.Cap() != 2 {
		t.Fatalf("last/evicted/len/cap = %d/%d/%d/%d, want 5/3/2/2",
			l.LastSeq(), l.Evicted(), l.Len(), l.Cap())
	}
}

func TestLogBacklogDropsAndCounts(t *testing.T) {
	const backlog = 8
	l := newItemLog(64, backlog)
	// Nothing reads the log, so everything past the backlog is shed.
	for i := 0; i < backlog+5; i++ {
		l.Append(item{Op: "a", N: i})
	}
	if l.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5", l.Dropped())
	}
	// The backlog survives and drains in FIFO order, ahead of a
	// later Add.
	if seq := l.Add(item{Op: "b", N: backlog}); seq != backlog+1 {
		t.Fatalf("add after backlog got seq %d, want %d", seq, backlog+1)
	}
	page := l.Since(0, "", 0)
	if len(page.Entries) != backlog+1 || page.Dropped != 5 {
		t.Fatalf("entries = %d dropped = %d, want %d and 5", len(page.Entries), page.Dropped, backlog+1)
	}
	for i, it := range page.Entries {
		if it.N != i || it.Seq != uint64(i+1) {
			t.Fatalf("entry %d = %+v, out of order", i, it)
		}
	}
}

func TestLogCountsLifetime(t *testing.T) {
	l := newItemLog(2, 16)
	for i := 0; i < 5; i++ {
		l.Append(item{Op: "a"})
	}
	l.Add(item{Op: "b"})
	// Counts cover evicted items too.
	if got := l.Counts(); got["a"] != 5 || got["b"] != 1 || len(got) != 2 {
		t.Fatalf("counts = %v, want a:5 b:1", got)
	}
	l.Counts()["a"] = 99
	if l.Counts()["a"] != 5 {
		t.Fatal("Counts returned the live map")
	}
}

func TestNilLog(t *testing.T) {
	var l *Log[item]
	l.Append(item{})
	if seq := l.Add(item{}); seq != 0 {
		t.Fatalf("nil Add returned %d", seq)
	}
	if p := l.Since(7, "", 0); len(p.Entries) != 0 || p.Next != 7 || p.Missed != 0 {
		t.Fatalf("nil Since = %+v", p)
	}
	if l.Dropped() != 0 || l.Len() != 0 || l.Cap() != 0 || l.LastSeq() != 0 || l.Evicted() != 0 || l.Counts() != nil {
		t.Fatal("nil log accessors not zero")
	}
}

// TestLogConcurrentAppendAndPoll runs producers through both doors
// against a cursor poller; under -race it checks the locking, and the
// poller checks it never sees a sequence number twice or out of order.
func TestLogConcurrentAppendAndPoll(t *testing.T) {
	l := newItemLog(128, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					l.Append(item{Op: fmt.Sprint(g)})
				} else {
					l.Add(item{Op: fmt.Sprint(g)})
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var cursor, seen, missed uint64
	poll := func() {
		page := l.Since(cursor, "", 0)
		for _, it := range page.Entries {
			if it.Seq <= cursor {
				t.Fatalf("seq %d re-delivered after cursor %d", it.Seq, cursor)
			}
			cursor = it.Seq
		}
		seen += uint64(len(page.Entries))
		missed += page.Missed
		cursor = page.Next
	}
	for {
		select {
		case <-done:
			poll()
			if last := l.LastSeq(); seen+missed != last {
				t.Fatalf("seen %d + missed %d != last seq %d", seen, missed, last)
			}
			if last, dropped := l.LastSeq(), l.Dropped(); last+dropped != 2000 {
				t.Fatalf("stored %d + dropped %d != 2000 produced", last, dropped)
			}
			return
		default:
			poll()
		}
	}
}
