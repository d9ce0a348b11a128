// Package audit implements the master's namespace audit log: one
// structured entry per namespace RPC (mutations and reads alike),
// carrying the op, path(s), result, the client's request/trace ID,
// byte sizes, and a per-phase latency breakdown — queue-wait in the
// RPC server, lock-wait on the namespace mutex, in-memory apply,
// edit-log append, and fsync. Where a trace answers "what happened
// inside one request" and the event journal records cluster state
// transitions, the audit log answers "who did what to the namespace,
// and where did the time go" for every request.
//
// The log is a ring.Log, bounded twice over. Retained entries live in
// a ring buffer (like the event journal) so memory never grows past
// the configured capacity, and the producer side is a non-blocking
// buffered channel: the RPC hot path never takes the consumer lock,
// and when the channel backlog is full the entry is dropped and
// counted rather than slowing the master down. "Droppable under
// pressure" is a feature — the audit log must never become the
// contention it exists to measure.
package audit

import (
	"net/http"

	"repro/internal/httpjson"
	"repro/internal/ring"
)

// DefaultCapacity bounds the ring when the configured capacity is
// zero. Metadata ops are small; 4096 entries cover the recent past in
// well under a MB.
const DefaultCapacity = 4096

// backlog is the producer channel depth: how many entries may be
// in flight between the RPC handlers and the ring before Append
// starts dropping. Sized above any plausible handler concurrency so
// drops only happen when consumers (pollers, the drain on Append)
// genuinely cannot keep up.
const backlog = 1024

// Entry is one audited namespace operation. All latency fields are
// nanoseconds; phases that did not occur (fsync when the edit log is
// not in sync mode, append on a read op) are zero.
type Entry struct {
	// Seq is the log-assigned sequence number: strictly monotonically
	// increasing, starting at 1. It is the cursor for Since.
	Seq uint64 `json:"seq"`

	// Time is the operation completion time in Unix nanoseconds.
	Time int64 `json:"time_ns"`

	// Op names the RPC ("create", "mkdir", "rename", "list", …).
	Op string `json:"op"`

	// Path is the primary path operated on.
	Path string `json:"path,omitempty"`

	// Dst is the destination path for two-path ops (rename).
	Dst string `json:"dst,omitempty"`

	// TraceID is the client's request ID, joining the entry to the
	// span timeline served by /debug/traces and `octopus-cli trace`.
	TraceID string `json:"trace_id,omitempty"`

	// Result is "ok" on success, the error text otherwise.
	Result string `json:"result"`

	// Bytes is the op's data size where one applies (committed block
	// bytes, located file bytes).
	Bytes int64 `json:"bytes,omitempty"`

	// Phase breakdown. QueueNs is the wait between the RPC server
	// decoding the request and the handler starting; LockWaitNs the
	// wait for the namespace mutex; ApplyNs the in-memory tree
	// mutation (or read body); AppendNs the edit-log gob append;
	// FsyncNs the edit-log file sync. TotalNs is handler start to
	// completion and can exceed the sum (placement, block-map work).
	QueueNs    int64 `json:"queue_ns"`
	LockWaitNs int64 `json:"lock_wait_ns"`
	ApplyNs    int64 `json:"apply_ns"`
	AppendNs   int64 `json:"append_ns,omitempty"`
	FsyncNs    int64 `json:"fsync_ns,omitempty"`
	TotalNs    int64 `json:"total_ns"`
}

// Log is the bounded audit stream. A nil *Log is valid and discards
// everything, so callers never nil-check the append path.
type Log = ring.Log[Entry]

// Page is one Since result, with the event journal's exactly-once
// cursor semantics plus the count of entries shed under pressure.
type Page = ring.Page[Entry]

// New builds a log retaining up to capacity entries (<= 0 selects
// DefaultCapacity). Append stamps an entry's completion time unless
// the producer set one.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return ring.NewLog(capacity, backlog,
		func(e Entry, seq uint64, now int64) Entry {
			e.Seq = seq
			if e.Time == 0 {
				e.Time = now
			}
			return e
		},
		func(e Entry) string { return e.Op })
}

// RegisterDebugHandler mounts the log on mux at /debug/audit, paged
// by httpjson.Cursor with an ?op filter. Each page carries the per-op
// lifetime counters.
func RegisterDebugHandler(mux *http.ServeMux, l *Log) {
	mux.Handle("/debug/audit", httpjson.Cursor("op", func(since uint64, op string, limit int) any {
		return struct {
			Page
			Counts map[string]uint64 `json:"counts"`
		}{l.Since(since, op, limit), l.Counts()}
	}))
}
