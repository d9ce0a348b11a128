// Package events implements the cluster event journal, the third
// observability plane next to metrics (internal/metrics) and traces
// (internal/trace). Where metrics answer "what is the cluster doing
// right now" and a trace answers "what happened inside one request",
// the journal answers "what has happened to the cluster over time":
// worker lifecycle changes, block state transitions, replication
// actions, and placement decisions, each stamped with a monotonic
// sequence number so consumers can cursor through them exactly once.
//
// The journal is a bounded ring.Log: memory never grows past the
// configured capacity no matter how many events are published. Evicted
// events are counted, and the Since cursor reports how many events a
// consumer missed to eviction, so a poller can always distinguish "no
// news" from "news lost".
package events

import (
	"net/http"

	"repro/internal/httpjson"
	"repro/internal/ring"
)

// DefaultCapacity bounds the journal when the configured capacity is
// zero. At typical cluster event rates (worker lifecycle + block
// transitions) this covers hours of history in a few MB.
const DefaultCapacity = 4096

// Severity grades an event. The journal does not interpret it; it
// exists so consumers can filter signal (warn/error) from routine
// lifecycle noise (info).
type Severity string

// Severity levels.
const (
	Info  Severity = "info"
	Warn  Severity = "warn"
	Error Severity = "error"
)

// Event is one journaled occurrence. Attrs carry the event-specific
// details (worker ID, block ID, tier, scores…) as strings so the
// package stays dependency-free and events serialise uniformly to
// JSON and gob.
type Event struct {
	// Seq is the journal-assigned sequence number: strictly
	// monotonically increasing, starting at 1, never reused. It
	// doubles as the cursor for incremental consumption.
	Seq uint64 `json:"seq"`

	// Time is the publication time in Unix nanoseconds.
	Time int64 `json:"time_ns"`

	// Type names the event kind (e.g. "worker_register",
	// "block_committed", "placement", "slow_op").
	Type string `json:"type"`

	// Severity grades the event.
	Severity Severity `json:"severity"`

	// Message is the human-readable one-liner.
	Message string `json:"message,omitempty"`

	// TraceID links the event to a distributed trace (the request ID)
	// when the event was caused by one identifiable request.
	TraceID string `json:"trace_id,omitempty"`

	// Attrs carry event-specific key/value details.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Journal is a bounded, thread-safe event ring with per-type
// counters. A nil *Journal is valid and discards everything, so
// callers never need nil checks on the publish path.
type Journal struct {
	events *ring.Log[Event]
}

// NewJournal builds a journal retaining up to capacity events (<= 0
// selects DefaultCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	// Publish stores synchronously (it returns the sequence number),
	// so the journal needs no append backlog.
	return &Journal{events: ring.NewLog(capacity, 0,
		func(e Event, seq uint64, now int64) Event { e.Seq, e.Time = seq, now; return e },
		func(e Event) string { return e.Type })}
}

// log returns the journal's ring, nil for a nil journal (whose methods
// then discard or report zero).
func (j *Journal) log() *ring.Log[Event] {
	if j == nil {
		return nil
	}
	return j.events
}

// Publish appends an event and returns its sequence number. kv are
// alternating attribute key/value pairs; a trailing odd key is
// ignored. Nil journals return 0.
func (j *Journal) Publish(sev Severity, typ, msg string, kv ...string) uint64 {
	return j.PublishTraced(sev, typ, "", msg, kv...)
}

// PublishTraced is Publish with a trace ID linking the event to a
// request's span timeline.
func (j *Journal) PublishTraced(sev Severity, typ, traceID, msg string, kv ...string) uint64 {
	if j == nil {
		return 0
	}
	var attrs map[string]string
	if len(kv) >= 2 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	return j.events.Add(Event{
		Type:     typ,
		Severity: sev,
		Message:  msg,
		TraceID:  traceID,
		Attrs:    attrs,
	})
}

// Page is one Since result: a slice of events plus the cursor state a
// poller needs to continue without re-delivery or silent gaps.
type Page struct {
	// Events are the matching events, oldest first.
	Events []Event `json:"events"`

	// Next is the cursor for the following Since call: the highest
	// sequence number examined (not merely returned — type-filtered
	// events advance it too), or the request's since value when
	// nothing new exists. Polling with since=Next is exactly-once over
	// retained events.
	Next uint64 `json:"next"`

	// Missed counts events with Seq > since that were evicted before
	// this call — the poller's data loss indicator.
	Missed uint64 `json:"missed"`

	// Evicted is the journal-lifetime eviction total.
	Evicted uint64 `json:"evicted"`
}

// Since returns retained events with Seq > since, oldest first,
// optionally filtered by type, capped at limit (<= 0 means no cap).
func (j *Journal) Since(since uint64, typ string, limit int) Page {
	p := j.log().Since(since, typ, limit)
	return Page{Events: p.Entries, Next: p.Next, Missed: p.Missed, Evicted: p.Evicted}
}

// Counts returns a copy of the per-type publication totals (lifetime,
// not just retained).
func (j *Journal) Counts() map[string]uint64 { return j.log().Counts() }

// Len returns the number of retained events.
func (j *Journal) Len() int { return j.log().Len() }

// Cap returns the configured capacity.
func (j *Journal) Cap() int { return j.log().Cap() }

// LastSeq returns the highest assigned sequence number (0 before the
// first publish).
func (j *Journal) LastSeq() uint64 { return j.log().LastSeq() }

// Evicted returns how many events have been dropped to the capacity
// bound over the journal's lifetime.
func (j *Journal) Evicted() uint64 { return j.log().Evicted() }

// debugResponse is the /debug/events JSON document: one cursor page
// plus the per-type lifetime counters.
type debugResponse struct {
	Page
	Counts map[string]uint64 `json:"counts"`
}

// RegisterDebugHandler mounts the journal on mux at /debug/events,
// paged by httpjson.Cursor with a ?type filter. Each page carries the
// per-type lifetime counters.
func RegisterDebugHandler(mux *http.ServeMux, j *Journal) {
	mux.Handle("/debug/events", httpjson.Cursor("type", func(since uint64, typ string, limit int) any {
		return debugResponse{j.Since(since, typ, limit), j.Counts()}
	}))
}
