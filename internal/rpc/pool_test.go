package rpc

import (
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// resetPool isolates a test from the process-wide data pool: idle
// conns from other tests are dropped and the default configuration is
// restored afterwards.
func resetPool(t *testing.T) {
	t.Helper()
	ResetDataPool()
	SetDataPool(DefaultDataPoolSize, DefaultDataPoolIdle)
	t.Cleanup(func() {
		ResetDataPool()
		SetDataPool(DefaultDataPoolSize, DefaultDataPoolIdle)
	})
}

// fakeDataServer speaks just enough of the data protocol for pool
// tests: it serves OpReadBlock exchanges on persistent connections and
// counts accepts, so a test can tell reuse from re-dialling.
type fakeDataServer struct {
	t       *testing.T
	payload []byte

	mu      sync.Mutex
	ln      net.Listener
	conns   []net.Conn
	accepts atomic.Int32
}

func startFakeDataServer(t *testing.T, payload []byte) *fakeDataServer {
	t.Helper()
	s := &fakeDataServer{t: t, payload: payload}
	s.listen("127.0.0.1:0")
	t.Cleanup(s.Stop)
	return s
}

func (s *fakeDataServer) listen(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.t.Fatalf("fake data server listen %s: %v", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go s.serve(conn)
		}
	}()
}

func (s *fakeDataServer) serve(conn net.Conn) {
	defer conn.Close()
	var op [1]byte
	for {
		if _, err := io.ReadFull(conn, op[:]); err != nil {
			return // client closed or went away: conn retired
		}
		if op[0] != OpReadBlock {
			return
		}
		var hdr ReadBlockHeader
		if err := ReadFrame(conn, &hdr); err != nil {
			return
		}
		if err := WriteFrame(conn, ReadBlockResponse{Length: int64(len(s.payload))}); err != nil {
			return
		}
		pw := NewPacketWriter(conn)
		_, werr := pw.Write(s.payload)
		cerr := pw.Close()
		pw.Release()
		if werr != nil || cerr != nil {
			return
		}
	}
}

func (s *fakeDataServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ln.Addr().String()
}

// Stop closes the listener and every live connection — from a
// client's perspective, the worker process died.
func (s *fakeDataServer) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// readOnce performs one full block-read exchange and reports whether
// it reused a pooled connection.
func (s *fakeDataServer) readOnce(t *testing.T) bool {
	t.Helper()
	var tm TransferTiming
	block := core.Block{ID: 1, GenStamp: 1, NumBytes: int64(len(s.payload))}
	rc, n, err := OpenBlockReaderTimed(s.Addr(), block, "w1:mem0", 0, -1, "", "", &tm)
	if err != nil {
		t.Fatalf("OpenBlockReader: %v", err)
	}
	got, err := io.ReadAll(rc)
	if cerr := rc.Close(); cerr != nil {
		t.Fatalf("Close: %v", cerr)
	}
	if err != nil || n != int64(len(s.payload)) || !bytes.Equal(got, s.payload) {
		t.Fatalf("read exchange corrupt: n=%d err=%v got=%d bytes", n, err, len(got))
	}
	return tm.PoolHit
}

// TestPoolReuseAcrossTransfers: the second and later transfers to the
// same worker must ride the pooled connection — one TCP accept total,
// pool hits reported per transfer.
func TestPoolReuseAcrossTransfers(t *testing.T) {
	resetPool(t)
	payload := bytes.Repeat([]byte("octopus"), 4096)
	s := startFakeDataServer(t, payload)

	for i := 0; i < 3; i++ {
		hit := s.readOnce(t)
		if i == 0 && hit {
			t.Error("first transfer reported a pool hit")
		}
		if i > 0 && !hit {
			t.Errorf("transfer %d did not reuse the pooled connection", i)
		}
	}
	if got := s.accepts.Load(); got != 1 {
		t.Errorf("server accepted %d connections over 3 transfers, want 1", got)
	}
}

// TestWorkerRestartInvalidatesPool: a pooled connection whose worker
// restarted must be discarded by the checkout health check (or retried
// over a fresh dial), never surface an error to the caller.
func TestWorkerRestartInvalidatesPool(t *testing.T) {
	resetPool(t)
	payload := bytes.Repeat([]byte("block"), 1024)
	s := startFakeDataServer(t, payload)
	addr := s.Addr()

	if s.readOnce(t) {
		t.Fatal("first transfer reported a pool hit")
	}

	// "Restart" the worker: kill listener and conns, re-listen on the
	// same address. The pooled conn is now a dead socket.
	s.Stop()
	s.listen(addr)
	// Let the FIN reach the pooled socket so the health check can see it.
	time.Sleep(50 * time.Millisecond)

	before := DataPoolStats()
	if s.readOnce(t) {
		t.Error("transfer against the restarted worker reported a pool hit")
	}
	after := DataPoolStats()
	if after.Discards+after.Stale == before.Discards+before.Stale {
		t.Errorf("dead pooled conn neither discarded nor retried: before=%+v after=%+v", before, after)
	}
	if got := s.accepts.Load(); got < 1 {
		t.Errorf("restarted server accepted %d connections, want >= 1", got)
	}
}

// tcpPair returns a client-side deadlineConn (pool-keyed to key) and
// its server-side peer.
func tcpPair(t *testing.T, key string) (*deadlineConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		ch <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	if srv == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); srv.Close() })
	return &deadlineConn{Conn: c, lastAddr: key}, srv
}

// TestPoolIdleCapEvicts: the per-address idle list is bounded; a put
// beyond the cap closes the conn instead of growing the list.
func TestPoolIdleCapEvicts(t *testing.T) {
	p := NewConnPool(2, time.Minute)
	defer p.Clear()
	var dcs []*deadlineConn
	for i := 0; i < 3; i++ {
		dc, _ := tcpPair(t, "worker:1")
		dcs = append(dcs, dc)
		p.put(dc)
	}
	if n := p.idleCount(); n != 2 {
		t.Errorf("idle count = %d, want cap 2", n)
	}
	if !dcs[2].closed {
		t.Error("conn over the idle cap was pooled, not closed")
	}
	if s := p.stats(); s.Returns != 2 || s.Expired != 1 {
		t.Errorf("stats = %+v, want 2 returns / 1 expired", s)
	}
	// LIFO: the newest pooled conn comes back first.
	if got := p.take("worker:1"); got != dcs[1] {
		t.Error("take did not return the newest idle conn")
	}
}

// TestPoolAgeExpiry: idle conns past the max age are retired at
// checkout, forcing a fresh dial.
func TestPoolAgeExpiry(t *testing.T) {
	p := NewConnPool(2, 10*time.Millisecond)
	defer p.Clear()
	dc, _ := tcpPair(t, "worker:1")
	p.put(dc)
	time.Sleep(30 * time.Millisecond)
	if got := p.take("worker:1"); got != nil {
		t.Error("expired idle conn handed out")
	}
	if s := p.stats(); s.Expired != 1 {
		t.Errorf("stats = %+v, want 1 expired", s)
	}
	if !dc.closed {
		t.Error("expired conn left open")
	}
}

// TestPoolDiscardsDeadConn: a pooled conn whose peer closed it must
// fail the checkout health check.
func TestPoolDiscardsDeadConn(t *testing.T) {
	p := NewConnPool(2, time.Minute)
	defer p.Clear()
	dc, srv := tcpPair(t, "worker:1")
	p.put(dc)
	srv.Close()
	// Wait for the FIN to land so MSG_PEEK observes the close.
	deadline := time.Now().Add(time.Second)
	for connAlive(dc.Conn) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.take("worker:1"); got != nil {
		t.Fatal("dead idle conn handed out")
	}
	if s := p.stats(); s.Discards != 1 {
		t.Errorf("stats = %+v, want 1 discard", s)
	}
}

// TestPoolDisabled: maxIdle <= 0 turns the pool off — every take
// misses and every put closes.
func TestPoolDisabled(t *testing.T) {
	p := NewConnPool(0, time.Minute)
	dc, _ := tcpPair(t, "worker:1")
	p.put(dc)
	if !dc.closed {
		t.Error("disabled pool kept a conn")
	}
	if got := p.take("worker:1"); got != nil {
		t.Error("disabled pool handed out a conn")
	}
}

// TestPoolConcurrentCheckout hammers take/put from many goroutines;
// run under -race it proves the pool's locking. Conns come from one
// accept-and-hold server.
func TestPoolConcurrentCheckout(t *testing.T) {
	p := NewConnPool(4, time.Minute)
	defer p.Clear()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var held []net.Conn
	var heldMu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()
	defer func() {
		heldMu.Lock()
		for _, c := range held {
			c.Close()
		}
		heldMu.Unlock()
	}()

	addr := ln.Addr().String()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				dc := p.take(addr)
				if dc == nil {
					c, err := net.Dial("tcp", addr)
					if err != nil {
						t.Error(err)
						return
					}
					dc = &deadlineConn{Conn: c, lastAddr: addr}
				}
				p.put(dc)
			}
		}()
	}
	wg.Wait()
	s := p.stats()
	if s.Hits == 0 {
		t.Error("concurrent checkout never hit the pool")
	}
	if n := p.idleCount(); n > 4 {
		t.Errorf("idle count %d exceeds cap", n)
	}
}
