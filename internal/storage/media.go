package storage

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// MediaConfig describes one storage media attached to a worker.
type MediaConfig struct {
	// ID uniquely identifies the media within the cluster, e.g.
	// "worker1:hdd0". The worker prefixes its own ID when empty.
	ID core.StorageID

	// Tier is the media's storage tier.
	Tier core.StorageTier

	// Capacity is the number of bytes OctopusFS may use on this media
	// (paper §7: e.g. 4 GB memory, 64 GB SSD, 400 GB HDD per worker).
	Capacity int64

	// Dir is the backing directory for non-memory tiers. Memory-tier
	// media ignore it and use an in-memory store.
	Dir string

	// WriteMBps / ReadMBps optionally throttle the media to emulate a
	// device with these sustained throughputs. Zero means unthrottled.
	WriteMBps float64
	ReadMBps  float64

	// AdvertiseWriteMBps / AdvertiseReadMBps seed the throughput the
	// media reports before (or instead of) a startup probe. When zero,
	// the throttle rates are advertised. Useful for unthrottled test
	// media that should still expose realistic tier speeds to the
	// policies.
	AdvertiseWriteMBps float64
	AdvertiseReadMBps  float64
}

// Media is one storage media instance managed by a worker: a block
// store plus capacity accounting, connection tracking, and measured
// throughput.
type Media struct {
	id    core.StorageID
	tier  core.StorageTier
	cap   int64
	store Store

	writeLimit *RateLimiter
	readLimit  *RateLimiter

	conns atomic.Int64

	// measured sustained throughputs from the startup probe, MB/s
	writeMBps atomic.Uint64 // math.Float64bits
	readMBps  atomic.Uint64
}

// OpenMedia builds a Media from its configuration: an in-memory store
// for the memory tier, a directory store otherwise.
func OpenMedia(cfg MediaConfig) (*Media, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("storage: media %s: capacity must be positive", cfg.ID)
	}
	var store Store
	if cfg.Tier == core.TierMemory {
		store = NewMemStore()
	} else {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("storage: media %s: tier %v requires a directory", cfg.ID, cfg.Tier)
		}
		ds, err := NewDiskStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		store = ds
	}
	m := &Media{
		id:         cfg.ID,
		tier:       cfg.Tier,
		cap:        cfg.Capacity,
		store:      store,
		writeLimit: NewRateLimiter(cfg.WriteMBps * 1e6),
		readLimit:  NewRateLimiter(cfg.ReadMBps * 1e6),
	}
	advW, advR := cfg.AdvertiseWriteMBps, cfg.AdvertiseReadMBps
	if advW == 0 {
		advW = cfg.WriteMBps
	}
	if advR == 0 {
		advR = cfg.ReadMBps
	}
	m.setThroughput(advW, advR)
	return m, nil
}

// ID returns the media's cluster-unique identifier.
func (m *Media) ID() core.StorageID { return m.id }

// Tier returns the media's storage tier.
func (m *Media) Tier() core.StorageTier { return m.tier }

// Capacity returns the bytes OctopusFS may store on this media.
func (m *Media) Capacity() int64 { return m.cap }

// Used returns the bytes currently stored.
func (m *Media) Used() int64 { return m.store.Used() }

// Remaining returns Capacity − Used, floored at zero.
func (m *Media) Remaining() int64 {
	r := m.cap - m.store.Used()
	if r < 0 {
		return 0
	}
	return r
}

// Connections returns the number of active I/O connections, the
// NrConn[m] statistic reported in heartbeats (paper §3.2).
func (m *Media) Connections() int { return int(m.conns.Load()) }

// WriteThruMBps returns the measured sustained write throughput.
func (m *Media) WriteThruMBps() float64 {
	return float64FromBits(m.writeMBps.Load())
}

// ReadThruMBps returns the measured sustained read throughput.
func (m *Media) ReadThruMBps() float64 {
	return float64FromBits(m.readMBps.Load())
}

func (m *Media) setThroughput(w, r float64) {
	m.writeMBps.Store(float64Bits(w))
	m.readMBps.Store(float64Bits(r))
}

// IOStats receives one stream's media I/O attribution, for the
// transfer flight recorder. All fields are nanoseconds on the
// stream's own critical path — unlike the limiter's cross-stream
// Stats total, these are exact per stream. ThrottleWaitNs is time
// the emulated pacing slept this stream. DeviceNs is store device
// time: chunk read time under OpenChunks, or the Put residual after
// source-wait and throttle are subtracted. SourceNs (Put only) is
// time the store spent waiting on the supplied reader — the network
// or pipe feeding the write.
type IOStats struct {
	ThrottleWaitNs int64
	DeviceNs       int64
	SourceNs       int64
}

// timedReader accumulates time spent inside Read into *ns.
type timedReader struct {
	r  io.Reader
	ns *int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(p)
	*t.ns += time.Since(start).Nanoseconds()
	return n, err
}

// WriteTo implements io.WriterTo through one pooled staging buffer,
// timing only the inner reads so the accumulated phase never exceeds
// the stream's wall time.
func (t *timedReader) WriteTo(w io.Writer) (int64, error) {
	buf, _ := bufpool.Get(32 << 10)
	defer bufpool.Put(buf)
	var total int64
	for {
		start := time.Now()
		n, err := t.r.Read(buf)
		*t.ns += time.Since(start).Nanoseconds()
		if n > 0 {
			m, werr := w.Write(buf[:n])
			total += int64(m)
			if werr != nil {
				return total, werr
			}
			if m < n {
				return total, io.ErrShortWrite
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Put stores a block replica, throttled at the media's write rate, and
// counted as an active connection for its duration. ErrNoSpace is
// returned when the content would exceed the media's capacity.
func (m *Media) Put(b core.Block, r io.Reader) (int64, error) {
	return m.PutStats(b, r, nil)
}

// PutStats is Put recording the stream's throttle, device, and
// source-wait attribution into st (which may be nil).
func (m *Media) PutStats(b core.Block, r io.Reader, st *IOStats) (int64, error) {
	if st == nil {
		st = &IOStats{}
	}
	if b.NumBytes > 0 && b.NumBytes > m.Remaining() && !m.store.Has(b) {
		return 0, fmt.Errorf("storage: media %s: %w", m.id, core.ErrNoSpace)
	}
	m.conns.Add(1)
	defer m.conns.Add(-1)
	src := LimitReaderStats(&timedReader{r: r, ns: &st.SourceNs}, m.writeLimit, &st.ThrottleWaitNs)
	start := time.Now()
	n, err := m.store.Put(b, src)
	if d := time.Since(start).Nanoseconds() - st.SourceNs - st.ThrottleWaitNs; d > 0 {
		st.DeviceNs = d
	}
	if err != nil {
		return n, err
	}
	if m.store.Used() > m.cap {
		// The writer lied about NumBytes; roll back.
		m.store.Delete(b)
		return 0, fmt.Errorf("storage: media %s: %w", m.id, core.ErrNoSpace)
	}
	return n, nil
}

// Open returns a throttled reader over a stored replica. The media's
// connection count stays elevated until the reader is closed.
func (m *Media) Open(b core.Block) (io.ReadCloser, error) {
	rc, err := m.store.Open(b)
	if err != nil {
		return nil, err
	}
	m.conns.Add(1)
	return &connTrackingReadCloser{ReadCloser: LimitReadCloser(rc, m.readLimit), conns: &m.conns}, nil
}

// ChunkReader serves a byte range of a stored replica as checksummed
// pieces, one per transfer packet. Reads go through the media's read
// throttle, and the media counts the reader as an active connection
// until Close.
type ChunkReader struct {
	block    core.BlockID
	rep      Replica
	pos, end int64
	limit    *RateLimiter
	st       *IOStats
	conns    *atomic.Int64
	closed   bool
}

// OpenChunks opens bytes [offset, offset+length) of a stored replica
// for serving, recording the stream's device read time and throttle
// sleep into st (which may be nil).
func (m *Media) OpenChunks(b core.Block, offset, length int64, st *IOStats) (*ChunkReader, error) {
	if st == nil {
		st = &IOStats{}
	}
	rep, err := m.store.OpenReplica(b)
	if err != nil {
		return nil, err
	}
	if offset < 0 || length < 0 || offset+length > rep.Size() {
		rep.Close()
		return nil, fmt.Errorf("storage: block %s: range [%d, %d) outside the %d-byte replica",
			b.ID, offset, offset+length, rep.Size())
	}
	m.conns.Add(1)
	return &ChunkReader{block: b.ID, rep: rep, pos: offset, end: offset + length, limit: m.readLimit, st: st, conns: &m.conns}, nil
}

// Next returns the next piece of the range and its CRC-32C, or io.EOF
// once the range is served. A piece is normally one whole chunk
// carrying the sum stored with it, so serving it costs no checksum
// work. Where the range starts or stops inside a chunk, the whole
// chunk is read and checked against its stored sum first (a mismatch
// is core.ErrCorrupt), and the piece gets a fresh sum. A replica
// stored without sums gets fresh sums throughout. The piece is valid
// until the next call.
func (cr *ChunkReader) Next() ([]byte, uint32, error) {
	if cr.pos >= cr.end {
		return nil, 0, io.EOF
	}
	idx := cr.pos / ChunkSize
	first := idx * ChunkSize
	last := min(first+ChunkSize, cr.rep.Size())
	start := time.Now()
	chunk, err := cr.rep.ReadChunk(first, int(last-first))
	cr.st.DeviceNs += time.Since(start).Nanoseconds()
	if err != nil {
		return nil, 0, fmt.Errorf("storage: block %s: reading chunk %d: %w", cr.block, idx, err)
	}
	if slept := cr.limit.Wait(len(chunk)); slept > 0 {
		cr.st.ThrottleWaitNs += slept.Nanoseconds()
	}
	piece := chunk[cr.pos-first : min(last, cr.end)-first]
	sums := cr.rep.Sums()
	var sum uint32
	switch {
	case sums == nil:
		sum = crc32.Checksum(piece, crcTable)
	case len(piece) == len(chunk):
		sum = sums[idx]
	case crc32.Checksum(chunk, crcTable) != sums[idx]:
		return nil, 0, fmt.Errorf("storage: block %s: chunk %d fails its checksum: %w", cr.block, idx, core.ErrCorrupt)
	default:
		sum = crc32.Checksum(piece, crcTable)
	}
	cr.pos += int64(len(piece))
	return piece, sum, nil
}

// AllocBytes reports the buffer bytes the reader freshly allocated.
func (cr *ChunkReader) AllocBytes() int64 { return cr.rep.AllocBytes() }

// Close releases the replica and the media connection. Double Close
// is a no-op.
func (cr *ChunkReader) Close() error {
	if cr.closed {
		return nil
	}
	cr.closed = true
	cr.conns.Add(-1)
	return cr.rep.Close()
}

// WriteLimit returns the media's write-side throttle (nil when
// unthrottled), so telemetry can surface emulated-device pacing.
func (m *Media) WriteLimit() *RateLimiter { return m.writeLimit }

// ReadLimit returns the media's read-side throttle (nil when
// unthrottled).
func (m *Media) ReadLimit() *RateLimiter { return m.readLimit }

// Verify recomputes a stored replica's chunk sums against the ones
// recorded at write time, returning core.ErrCorrupt on mismatch. A
// replica stored without sums verifies trivially. Verification
// bypasses the throughput throttle and connection accounting: it
// models a local scrub, not a served read.
func (m *Media) Verify(b core.Block) error {
	rep, err := m.store.OpenReplica(b)
	if err != nil {
		return err
	}
	defer rep.Close()
	for i, want := range rep.Sums() {
		off := int64(i) * ChunkSize
		chunk, err := rep.ReadChunk(off, int(min(ChunkSize, rep.Size()-off)))
		if err != nil {
			return fmt.Errorf("storage: block %s: reading chunk %d: %w", b.ID, i, err)
		}
		if crc32.Checksum(chunk, crcTable) != want {
			return fmt.Errorf("storage: block %s: chunk %d fails its checksum: %w", b.ID, i, core.ErrCorrupt)
		}
	}
	return nil
}

// Delete removes a stored replica.
func (m *Media) Delete(b core.Block) error { return m.store.Delete(b) }

// Has reports whether the media holds a replica of the block.
func (m *Media) Has(b core.Block) bool { return m.store.Has(b) }

// Blocks lists the stored replicas.
func (m *Media) Blocks() []core.Block { return m.store.Blocks() }

// Close shuts the media down.
func (m *Media) Close() error { return m.store.Close() }

// connTrackingReadCloser decrements the connection counter once on
// Close, tolerating double-Close.
type connTrackingReadCloser struct {
	io.ReadCloser
	conns  *atomic.Int64
	closed atomic.Bool
}

func (c *connTrackingReadCloser) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.conns.Add(-1)
	}
	return c.ReadCloser.Close()
}

// Probe measures the media's sustained write and read throughput by
// writing and reading back a probe block of the given size, mirroring
// the short I/O-intensive test each worker runs at launch (paper
// §3.2). The measured values are stored on the media and returned in
// MB/s. The probe block is deleted afterwards.
func (m *Media) Probe(probeBytes int64) (writeMBps, readMBps float64, err error) {
	if probeBytes <= 0 {
		probeBytes = 4 << 20
	}
	if probeBytes > m.Remaining() {
		probeBytes = m.Remaining() / 2
	}
	if probeBytes < 1<<16 {
		return 0, 0, fmt.Errorf("storage: media %s: not enough space to probe", m.id)
	}
	probe := core.Block{ID: 0, GenStamp: 0, NumBytes: probeBytes}
	data, _ := bufpool.Get(int(probeBytes))
	defer bufpool.Put(data)
	// Fill with a non-trivial pattern quickly (doubling copy).
	for i := 0; i < 256; i++ {
		data[i] = byte(i*31 + 7)
	}
	for filled := 256; filled < len(data); filled *= 2 {
		copy(data[filled:], data[:filled])
	}

	start := time.Now()
	if _, err := m.Put(probe, bytes.NewReader(data)); err != nil {
		return 0, 0, fmt.Errorf("storage: probe write: %w", err)
	}
	writeMBps = float64(probeBytes) / 1e6 / time.Since(start).Seconds()

	start = time.Now()
	rc, err := m.Open(probe)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: probe read: %w", err)
	}
	_, err = io.Copy(io.Discard, rc)
	rc.Close()
	if err != nil {
		return 0, 0, fmt.Errorf("storage: probe read: %w", err)
	}
	readMBps = float64(probeBytes) / 1e6 / time.Since(start).Seconds()

	if err := m.Delete(probe); err != nil {
		return 0, 0, fmt.Errorf("storage: probe cleanup: %w", err)
	}
	m.setThroughput(writeMBps, readMBps)
	return writeMBps, readMBps, nil
}

func float64Bits(f float64) uint64     { return math.Float64bits(f) }
func float64FromBits(b uint64) float64 { return math.Float64frombits(b) }
