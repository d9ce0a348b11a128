package main

import (
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/rpc"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side. Spans of one operation share op; a call's parent
// is the operation's root span, named after the op kind.
type span struct {
	op     int
	name   string
	parent string // "" for an operation's root span
	start  time.Time
	dur    time.Duration
}

// tracer keeps one client's spans in memory. A nil tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	op    int
	root  string
	spans []span
}

func (t *tracer) beginOp(kind string) {
	if t != nil {
		t.op++
		t.root = kind
	}
}

func (t *tracer) endOp(start time.Time, d time.Duration) {
	if t != nil {
		t.spans = append(t.spans, span{op: t.op, name: t.root, start: start, dur: d})
	}
}

// call runs fn as a child span of the current operation.
func (t *tracer) call(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	t.spans = append(t.spans, span{op: t.op, name: name, parent: t.root, start: t0, dur: time.Since(t0)})
	return err
}

// Client-layer spans: the wrappers below are the only way the
// workloads call into client.FileSystem, Writer and Reader.

func createFile(c *clientRun, fs *client.FileSystem, path string, rv core.ReplicationVector) (*client.Writer, error) {
	var w *client.Writer
	err := c.tr.call("client.create", func() (err error) {
		w, err = fs.Create(path, client.CreateOptions{RepVector: rv})
		return err
	})
	return w, err
}

func writeAll(c *clientRun, w *client.Writer, data []byte) error {
	return c.tr.call("client.write", func() error {
		_, err := w.Write(data)
		return err
	})
}

func closeWriter(c *clientRun, w *client.Writer) error {
	return c.tr.call("client.close", w.Close)
}

// putFile writes data as a new file: create, write and close.
func putFile(c *clientRun, fs *client.FileSystem, path string, data []byte, rv core.ReplicationVector) error {
	w, err := createFile(c, fs, path, rv)
	if err != nil {
		return err
	}
	if err := writeAll(c, w, data); err != nil {
		w.Abort()
		return err
	}
	return closeWriter(c, w)
}

// getFile opens path and reads it whole into buf, returning the bytes
// read; a file longer than buf is an error left to the caller's
// length check.
func getFile(c *clientRun, fs *client.FileSystem, path string, buf []byte) ([]byte, error) {
	var r *client.Reader
	err := c.tr.call("client.open", func() (err error) {
		r, err = fs.Open(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	n := int(min(r.Length(), int64(len(buf))))
	err = c.tr.call("client.read", func() error {
		_, err := io.ReadFull(r, buf[:n])
		return err
	})
	return buf[:n], err
}

func statPath(c *clientRun, fs *client.FileSystem, path string) (rpc.FileStatus, error) {
	var st rpc.FileStatus
	err := c.tr.call("client.stat", func() (err error) {
		st, err = fs.Stat(path)
		return err
	})
	return st, err
}

func listDir(c *clientRun, fs *client.FileSystem, path string) error {
	return c.tr.call("client.list", func() error {
		_, err := fs.List(path)
		return err
	})
}

func renamePath(c *clientRun, fs *client.FileSystem, src, dst string) error {
	return c.tr.call("client.rename", func() error { return fs.Rename(src, dst) })
}

func deletePath(c *clientRun, fs *client.FileSystem, path string) error {
	return c.tr.call("client.delete", func() error { return fs.Delete(path, false) })
}

// notePlacement records, on traced runs, the tier of every replica
// the master placed for a just-written file whose vector left the
// tiers unspecified.
func notePlacement(c *clientRun, fs *client.FileSystem, path string) {
	if c.tr == nil {
		return
	}
	blocks, err := fs.GetFileBlockLocations(path, 0, -1)
	if err != nil {
		return
	}
	for _, b := range blocks {
		for _, loc := range b.Locations {
			c.placed[tierName(loc.Tier)]++
		}
	}
}
