package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// The data-transfer protocol spoken on a worker's data port. Every
// exchange starts with a one-byte opcode followed by a length-prefixed
// header frame (binary v1 for the hot-path messages, gob for the dump
// messages — see binframe.go); block
// content then flows as checksummed packets. Connections are
// persistent: after a clean exchange the same connection carries the
// next opcode.
const (
	// OpWriteBlock streams a block into a pipeline of workers
	// (paper §3.1: Worker-to-Worker pipeline).
	OpWriteBlock = byte(iota + 1)

	// OpReadBlock streams a block (or a byte range of it) to a reader.
	OpReadBlock

	// OpReplicateBlock instructs a worker to fetch a block from
	// another worker and store it locally (paper §5).
	OpReplicateBlock

	// OpTraceDump asks a worker for its stored spans of one trace, so
	// the master can assemble a cross-daemon timeline without the
	// worker exposing an RPC server.
	OpTraceDump

	// OpTransferDump asks a worker for one page of its transfer
	// flight-recorder log, so Master.GetTransfers can fan out across
	// the cluster over the existing data port.
	OpTransferDump
)

// MaxPacketSize bounds one data packet. 64 KiB balances syscall
// overhead against pipelining latency, like HDFS's packet size.
const MaxPacketSize = 64 << 10

// PipelineTarget identifies one stage of a write pipeline: the worker
// address to forward to and the media that stage must store on.
type PipelineTarget struct {
	Worker  core.WorkerID
	Address string
	Storage core.StorageID
}

// WriteBlockHeader opens an OpWriteBlock exchange.
type WriteBlockHeader struct {
	Block core.Block // NumBytes may be 0; the packet stream defines it
	// Pipeline lists this worker's stage first; the worker stores on
	// Pipeline[0].Storage and forwards to Pipeline[1:].
	Pipeline []PipelineTarget
	// Client names the writing client for log and audit purposes.
	Client string
	// ReqID correlates this exchange with the client operation that
	// caused it across master and worker logs.
	ReqID string
	// SpanID is the sender's span, parenting this stage's span; each
	// stage replaces it with its own span ID before forwarding, so the
	// pipeline's spans chain client → worker → downstream worker.
	SpanID string
}

// WriteBlockAck closes an OpWriteBlock exchange, reporting per-stage
// success upstream.
type WriteBlockAck struct {
	// Err is the EncodeError representation of the first failure in
	// this stage or any downstream stage ("" = success).
	Err string
	// Stored is the number of bytes persisted by this stage.
	Stored int64
}

// ReadBlockHeader opens an OpReadBlock exchange.
type ReadBlockHeader struct {
	Block   core.Block
	Storage core.StorageID
	Offset  int64 // starting byte within the block
	Length  int64 // bytes to read; -1 = to end of block
	// ReqID correlates this exchange with the client operation that
	// caused it across master and worker logs.
	ReqID string
	// SpanID is the reader's span, parenting the worker's read span.
	SpanID string
}

// ReadBlockResponse precedes the packet stream of an OpReadBlock.
type ReadBlockResponse struct {
	Err    string // EncodeError representation; "" = data follows
	Length int64  // number of bytes that will be streamed
}

// ReplicateBlockHeader opens an OpReplicateBlock exchange, telling the
// receiving worker to copy a block from a source location onto one of
// its own media.
type ReplicateBlockHeader struct {
	Block   core.Block
	Target  core.StorageID       // local media to store on
	Sources []core.BlockLocation // replica locations to copy from, best first
	// ReqID correlates this exchange across master and worker logs.
	ReqID string
	// SpanID is the requester's span, parenting the replication span.
	SpanID string
}

// ReplicateBlockAck closes an OpReplicateBlock exchange.
type ReplicateBlockAck struct {
	Err string
}

// TraceDumpHeader opens an OpTraceDump exchange.
type TraceDumpHeader struct {
	TraceID string
}

// TraceDumpResponse carries the worker's retained spans for the
// requested trace. The per-trace span cap keeps it well under the
// control-frame size limit.
type TraceDumpResponse struct {
	Spans []trace.Span
}

// TransferDumpHeader opens an OpTransferDump exchange: one cursor
// page request against the worker's transfer flight recorder, with
// the same since/op/limit semantics as /debug/transfers.
type TransferDumpHeader struct {
	Since uint64
	Op    string // "" = all transfer kinds
	Limit int    // <= 0 = no cap
}

// TransferDumpResponse carries one page of the worker's transfer log
// plus its per-op lifetime counters. Limit keeps it under the
// control-frame size limit; callers page with Since = Page.Next.
type TransferDumpResponse struct {
	Page   xfer.Page
	Counts map[string]uint64
}

// WriteFrame encodes v as one length-prefixed frame: binary v1 for
// the hot-path messages, gob otherwise.
func WriteFrame(w io.Writer, v any) error {
	bp := frameScratch.Get().(*[]byte)
	buf := (*bp)[:0]
	// Reserve the tag + length prefix, then append the payload.
	buf = append(buf, frameTagBinary, 0, 0, 0, 0)
	buf, ok := encodeBinary(buf, v)
	if ok {
		binary.LittleEndian.PutUint32(buf[1:5], uint32(len(buf)-5))
		connStats.frames.Add(1)
		connStats.frameBytes.Add(uint64(len(buf) - 5))
		_, err := w.Write(buf)
		*bp = buf[:0]
		frameScratch.Put(bp)
		if err != nil {
			return fmt.Errorf("rpc: writing frame: %w", err)
		}
		return nil
	}
	*bp = buf[:0]
	frameScratch.Put(bp)

	var bw lenWriter
	if err := gob.NewEncoder(&bw).Encode(v); err != nil {
		return fmt.Errorf("rpc: encoding frame: %w", err)
	}
	buf = bw.buf
	connStats.frames.Add(1)
	connStats.frameBytes.Add(uint64(len(buf)))
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(buf)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("rpc: writing frame header: %w", err)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("rpc: writing frame body: %w", err)
	}
	return nil
}

// maxFrameSize bounds a control frame; headers are small, so anything
// bigger indicates a corrupt or hostile stream. Keeping it under
// 1<<24 also guarantees a gob frame's first byte is 0x00, which is
// how ReadFrame tells the formats apart.
const maxFrameSize = 1 << 20

// ReadFrame decodes one length-prefixed frame into v: binary v1 or,
// for the dump messages, gob.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return err
	}
	if hdr[0] == frameTagBinary {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("rpc: reading frame length: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > maxFrameSize {
			return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
		}
		connStats.frames.Add(1)
		connStats.frameBytes.Add(uint64(n))
		bp := frameScratch.Get().(*[]byte)
		buf := *bp
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			*bp = buf[:0]
			frameScratch.Put(bp)
			return fmt.Errorf("rpc: reading frame body: %w", err)
		}
		err := decodeBinary(buf, v)
		*bp = buf[:0]
		frameScratch.Put(bp)
		return err
	}
	if hdr[0] != 0 {
		return fmt.Errorf("rpc: unknown frame tag 0x%02x", hdr[0])
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameSize {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	connStats.frames.Add(1)
	connStats.frameBytes.Add(uint64(n))
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("rpc: reading frame body: %w", err)
	}
	if err := gob.NewDecoder(&frameReader{buf}).Decode(v); err != nil {
		return fmt.Errorf("rpc: decoding frame: %w", err)
	}
	return nil
}

type lenWriter struct{ buf []byte }

func (w *lenWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

type frameReader struct{ buf []byte }

func (r *frameReader) Read(p []byte) (int, error) {
	if len(r.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// castagnoli is the CRC-32C table used for packet checksums, the same
// polynomial HDFS uses for block checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// packetBufSize is the staging-buffer size shared by the packet
// reader and writer: one max-size packet plus framing headroom.
const packetBufSize = MaxPacketSize + 64

// packetWriterPool and packetReaderPool recycle the bufio buffers the
// packet layer stages through: one Get/Put pair per transfer instead
// of a 64 KiB allocation each.
var packetWriterPool = sync.Pool{}
var packetReaderPool = sync.Pool{}

// PacketWriter streams block content as checksummed packets:
// [uint32 length][uint32 crc32c][payload]; a zero-length packet
// terminates the stream. Its staging buffer comes from a pool;
// Release returns it once the stream is settled.
type PacketWriter struct {
	w     *bufio.Writer
	buf   [8]byte
	alloc int64
}

// NewPacketWriter wraps w for packet output.
func NewPacketWriter(w io.Writer) *PacketWriter {
	pw := &PacketWriter{}
	if v := packetWriterPool.Get(); v != nil {
		pw.w = v.(*bufio.Writer)
		pw.w.Reset(w)
	} else {
		pw.w = bufio.NewWriterSize(w, packetBufSize)
		pw.alloc = packetBufSize
	}
	return pw
}

// AllocBytes reports the buffer bytes this writer freshly allocated —
// the per-transfer churn cost the flight recorder tracks. Pool reuse
// makes it zero in steady state.
func (pw *PacketWriter) AllocBytes() int64 { return pw.alloc }

// Release returns the staging buffer to the pool. The stream must be
// settled first (Close flushed it, or the transfer aborted and the
// buffered tail is being dropped with the connection). Double release
// is a no-op.
func (pw *PacketWriter) Release() {
	if pw.w == nil {
		return
	}
	pw.w.Reset(io.Discard)
	packetWriterPool.Put(pw.w)
	pw.w = nil
}

// Write implements io.Writer, splitting p into packets of at most
// MaxPacketSize bytes.
func (pw *PacketWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > MaxPacketSize {
			chunk = chunk[:MaxPacketSize]
		}
		if err := pw.WritePacket(chunk, crc32.Checksum(chunk, castagnoli)); err != nil {
			return total, err
		}
		total += len(chunk)
		p = p[len(chunk):]
	}
	return total, nil
}

// WritePacket emits p as one packet under a CRC-32C the caller already
// holds, such as a chunk sum stored beside a replica; the reader
// verifies it like any other. p must be non-empty and at most
// MaxPacketSize bytes.
func (pw *PacketWriter) WritePacket(p []byte, sum uint32) error {
	if len(p) == 0 || len(p) > MaxPacketSize {
		return fmt.Errorf("rpc: packet of %d bytes outside (0, %d]", len(p), MaxPacketSize)
	}
	binary.BigEndian.PutUint32(pw.buf[0:4], uint32(len(p)))
	binary.BigEndian.PutUint32(pw.buf[4:8], sum)
	if _, err := pw.w.Write(pw.buf[:]); err != nil {
		return fmt.Errorf("rpc: writing packet header: %w", err)
	}
	if _, err := pw.w.Write(p); err != nil {
		return fmt.Errorf("rpc: writing packet payload: %w", err)
	}
	return nil
}

// Close terminates the stream with an empty packet and flushes.
func (pw *PacketWriter) Close() error {
	binary.BigEndian.PutUint32(pw.buf[0:4], 0)
	binary.BigEndian.PutUint32(pw.buf[4:8], 0)
	if _, err := pw.w.Write(pw.buf[:]); err != nil {
		return fmt.Errorf("rpc: writing end packet: %w", err)
	}
	return pw.w.Flush()
}

// PacketReader consumes a packet stream, verifying each packet's
// checksum. It implements io.Reader and reports core.ErrCorrupt on a
// checksum mismatch. Its buffers come from pools; Release returns
// them once the stream is settled.
type PacketReader struct {
	r       *bufio.Reader
	pending []byte
	done    bool
	scratch []byte
	alloc   int64
}

// NewPacketReader wraps r for packet input.
func NewPacketReader(r io.Reader) *PacketReader {
	pr := &PacketReader{}
	if v := packetReaderPool.Get(); v != nil {
		pr.r = v.(*bufio.Reader)
		pr.r.Reset(r)
	} else {
		pr.r = bufio.NewReaderSize(r, packetBufSize)
		pr.alloc = packetBufSize
	}
	return pr
}

// AllocBytes reports the buffer bytes this reader freshly allocated
// (bufio buffer plus scratch) — the per-transfer churn cost the
// flight recorder tracks. Pool reuse makes it zero in steady state.
func (pr *PacketReader) AllocBytes() int64 { return pr.alloc }

// Drained reports that the stream's end marker was consumed and no
// payload remains undelivered — the state in which the underlying
// connection is clean and reusable.
func (pr *PacketReader) Drained() bool { return pr.done && len(pr.pending) == 0 }

// PendingEmpty reports that no decoded payload is waiting. When true
// but not Drained, only the end marker (or more packets) remains on
// the wire.
func (pr *PacketReader) PendingEmpty() bool { return len(pr.pending) == 0 }

// TryFinish attempts to consume the stream's end marker: after a
// consumer read exactly the advertised length, the zero-length
// terminator may still be in flight. It returns true if the stream is
// now drained, false if payload (not a terminator) arrived or the
// read failed. Callers bound the attempt with a deadline on the
// underlying connection.
func (pr *PacketReader) TryFinish() bool {
	if pr.Drained() {
		return true
	}
	if len(pr.pending) > 0 {
		return false
	}
	if err := pr.fill(); err != nil {
		return false
	}
	return pr.Drained()
}

// Release returns the reader's buffers to their pools. The caller
// must be done with the stream (and any slice returned by Read has
// been consumed — Read copies, so that always holds).
func (pr *PacketReader) Release() {
	if pr.r != nil {
		pr.r.Reset(emptyReader{})
		packetReaderPool.Put(pr.r)
		pr.r = nil
	}
	if pr.scratch != nil {
		bufpool.Put(pr.scratch)
		pr.scratch = nil
		pr.pending = nil
	}
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }

// Read implements io.Reader.
func (pr *PacketReader) Read(p []byte) (int, error) {
	for len(pr.pending) == 0 {
		if pr.done {
			return 0, io.EOF
		}
		if err := pr.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, pr.pending)
	pr.pending = pr.pending[n:]
	return n, nil
}

// WriteTo implements io.WriterTo: it hands each verified packet's
// payload straight to w, so io.Copy from a PacketReader performs no
// extra staging copy.
func (pr *PacketReader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		for len(pr.pending) == 0 {
			if pr.done {
				return total, nil
			}
			if err := pr.fill(); err != nil {
				return total, err
			}
		}
		n, err := w.Write(pr.pending)
		pr.pending = pr.pending[n:]
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
}

func (pr *PacketReader) fill() error {
	var hdr [8]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF // stream ended without end packet
		}
		return err
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint32(hdr[4:8])
	if length == 0 {
		pr.done = true
		return nil
	}
	if length > MaxPacketSize {
		return fmt.Errorf("rpc: packet of %d bytes exceeds limit", length)
	}
	if cap(pr.scratch) < int(length) {
		if pr.scratch != nil {
			bufpool.Put(pr.scratch)
		}
		var fresh bool
		pr.scratch, fresh = bufpool.Get(int(length))
		if fresh {
			pr.alloc += int64(length)
		}
	}
	buf := pr.scratch[:length]
	if _, err := io.ReadFull(pr.r, buf); err != nil {
		return fmt.Errorf("rpc: reading packet payload: %w", err)
	}
	if got := crc32.Checksum(buf, castagnoli); got != want {
		return fmt.Errorf("rpc: packet checksum mismatch (got %08x, want %08x): %w",
			got, want, core.ErrCorrupt)
	}
	pr.pending = buf
	return nil
}
