// Package httpjson bundles the JSON plumbing shared by every debug
// endpoint (/debug/events, /debug/history, /debug/traces,
// /debug/heat, /status): one Write helper that always sets the
// Content-Type header, query-parameter parsers with a consistent
// 400-on-bad-param contract, and the cursor handler behind the
// sequenced logs (/debug/events, /debug/audit, /debug/transfers).
package httpjson

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Write encodes v as indented JSON with the Content-Type header set.
func Write(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// IntParam parses the named integer query parameter, returning def
// when absent. A malformed value writes a 400 response and returns
// ok=false; callers must stop handling the request.
func IntParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, true
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		badParam(w, name, s)
		return 0, false
	}
	return v, true
}

// Uint64Param parses the named uint64 query parameter (decimal or
// 0x-prefixed hex), returning def when absent. Malformed values write
// a 400 and return ok=false.
func Uint64Param(w http.ResponseWriter, r *http.Request, name string, def uint64) (uint64, bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, true
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		badParam(w, name, s)
		return 0, false
	}
	return v, true
}

// BoolParam parses the named boolean query parameter. A bare
// occurrence ("?misplaced") counts as true; absence returns def;
// malformed values write a 400 and return ok=false.
func BoolParam(w http.ResponseWriter, r *http.Request, name string, def bool) (bool, bool) {
	q := r.URL.Query()
	if !q.Has(name) {
		return def, true
	}
	s := q.Get(name)
	if s == "" {
		return true, true
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		badParam(w, name, s)
		return false, false
	}
	return v, true
}

// Cursor serves one page of a sequenced log per request: ?since=<seq>
// resumes a cursor (default 0, from the oldest retained item),
// ?<filter>=<kind> keeps only items of one kind, and ?limit=<n> caps
// the page (default 1000). page builds the JSON document from the
// three; it carries the next cursor and the eviction counters so
// pollers can tell "no news" from "news lost".
func Cursor(filter string, page func(since uint64, kind string, limit int) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		since, ok := Uint64Param(w, r, "since", 0)
		if !ok {
			return
		}
		limit, ok := IntParam(w, r, "limit", 1000)
		if !ok {
			return
		}
		Write(w, page(since, r.URL.Query().Get(filter), limit))
	}
}

func badParam(w http.ResponseWriter, name, val string) {
	http.Error(w, "bad "+name+" parameter: "+strconv.Quote(val), http.StatusBadRequest)
}
