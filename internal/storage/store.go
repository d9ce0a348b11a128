// Package storage implements the per-worker storage media of
// OctopusFS: block stores backed by memory or directories on disk,
// wrapped with capacity accounting, active-connection tracking, and
// optional token-bucket throughput throttling.
//
// Throttling exists so that a single test machine can faithfully
// emulate the heterogeneous media of the paper's evaluation cluster
// (Table 2: memory ≈ 1897/3225 MB/s, SSD ≈ 341/420, HDD ≈ 126/177
// write/read): a worker configured with a throttled directory store
// behaves — from the file system's point of view — like a worker with
// a real device of that speed.
package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// Store is a flat container of block replicas. Implementations must be
// safe for concurrent use.
type Store interface {
	// Put stores the block's content read from r, replacing any
	// existing replica of the same block, and returns the number of
	// bytes stored.
	Put(b core.Block, r io.Reader) (int64, error)

	// Open returns a reader over the stored replica.
	// It returns core.ErrNotFound if the replica is absent.
	Open(b core.Block) (io.ReadCloser, error)

	// Delete removes the replica. Deleting an absent replica returns
	// core.ErrNotFound.
	Delete(b core.Block) error

	// Has reports whether a replica of the block is present.
	Has(b core.Block) bool

	// Blocks lists the stored replicas, sorted by block ID.
	Blocks() []core.Block

	// Used returns the number of bytes currently stored.
	Used() int64

	// OpenReplica opens the replica for chunk-wise reading, together
	// with the chunk sums recorded at Put time (the moral equivalent
	// of HDFS's .meta files). It returns core.ErrNotFound if the
	// replica is absent.
	OpenReplica(b core.Block) (Replica, error)

	// Close releases the store's resources. Memory stores drop their
	// content (the tier is volatile); disk stores keep files on disk.
	Close() error
}

// blockKey identifies a replica within a store.
type blockKey struct {
	id  core.BlockID
	gen core.GenerationStamp
}

// crcTable is the CRC-32C polynomial used for stored-replica
// checksums, matching the transfer protocol's.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ChunkSize is the span of replica content each stored checksum
// covers. It equals the transfer protocol's packet size, so the sum
// stored with a chunk doubles as the checksum of the packet that
// carries it.
const ChunkSize = 64 << 10

// Replica is a stored replica opened for chunk-wise reading.
type Replica interface {
	// Size returns the replica's length in bytes.
	Size() int64

	// Sums returns the CRC-32C of each ChunkSize span of the replica
	// (the last may be shorter), recorded at Put time. It is nil for
	// a replica stored without sums.
	Sums() []uint32

	// ReadChunk returns the n bytes at off. The slice may alias the
	// store's own memory: it must not be modified, and it is valid
	// only until the next call.
	ReadChunk(off int64, n int) ([]byte, error)

	// AllocBytes reports the buffer bytes the replica freshly
	// allocated for reading, for the transfer flight recorder.
	AllocBytes() int64

	Close() error
}

// numChunks returns how many chunk sums cover a replica of size bytes.
func numChunks(size int64) int {
	return int((size + ChunkSize - 1) / ChunkSize)
}

// chunkSummer is an io.Writer computing the CRC-32C of each ChunkSize
// span of what passes through it.
type chunkSummer struct {
	sums []uint32
	cur  uint32 // running sum of the open chunk
	fill int    // bytes in the open chunk
}

func (c *chunkSummer) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		take := min(len(p), ChunkSize-c.fill)
		c.cur = crc32.Update(c.cur, crcTable, p[:take])
		c.fill += take
		p = p[take:]
		if c.fill == ChunkSize {
			c.sums = append(c.sums, c.cur)
			c.cur, c.fill = 0, 0
		}
	}
	return n, nil
}

// Sums closes the open chunk and returns every chunk's sum.
func (c *chunkSummer) Sums() []uint32 {
	if c.fill > 0 {
		c.sums = append(c.sums, c.cur)
		c.cur, c.fill = 0, 0
	}
	return c.sums
}

// chunkSums returns the per-chunk sums of an in-memory replica.
func chunkSums(data []byte) []uint32 {
	c := chunkSummer{sums: make([]uint32, 0, numChunks(int64(len(data))))}
	c.Write(data)
	return c.Sums()
}

// MemStore is a volatile in-memory block store backing the memory
// tier.
type MemStore struct {
	mu     sync.RWMutex
	blocks map[blockKey]memReplica
	used   int64
	closed bool
}

// memReplica is one in-memory replica and its chunk sums. It is
// immutable once stored, so it serves as its own open Replica.
type memReplica struct {
	data []byte
	sums []uint32
}

func (r memReplica) Size() int64       { return int64(len(r.data)) }
func (r memReplica) Sums() []uint32    { return r.sums }
func (r memReplica) AllocBytes() int64 { return 0 }
func (r memReplica) Close() error      { return nil }

// ReadChunk implements Replica without copying: it returns a view of
// the stored bytes.
func (r memReplica) ReadChunk(off int64, n int) ([]byte, error) {
	if off < 0 || off+int64(n) > int64(len(r.data)) {
		return nil, io.ErrUnexpectedEOF
	}
	return r.data[off : off+int64(n) : off+int64(n)], nil
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blocks: make(map[blockKey]memReplica)}
}

// Put implements Store.
func (s *MemStore) Put(b core.Block, r io.Reader) (int64, error) {
	data, err := readAllSized(r, b.NumBytes)
	if err != nil {
		return 0, fmt.Errorf("storage: reading block %s: %w", b.ID, err)
	}
	sums := chunkSums(data)
	key := blockKey{b.ID, b.GenStamp}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, core.ErrShutdown
	}
	if old, ok := s.blocks[key]; ok {
		s.used -= old.Size()
	}
	s.blocks[key] = memReplica{data: data, sums: sums}
	s.used += int64(len(data))
	return int64(len(data)), nil
}

// OpenReplica implements Store.
func (s *MemStore) OpenReplica(b core.Block) (Replica, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.blocks[blockKey{b.ID, b.GenStamp}]
	if !ok {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	return r, nil
}

// Open implements Store.
func (s *MemStore) Open(b core.Block) (io.ReadCloser, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.blocks[blockKey{b.ID, b.GenStamp}]
	if !ok {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	return io.NopCloser(bytes.NewReader(r.data)), nil
}

// Delete implements Store.
func (s *MemStore) Delete(b core.Block) error {
	key := blockKey{b.ID, b.GenStamp}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.blocks[key]
	if !ok {
		return fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	s.used -= r.Size()
	delete(s.blocks, key)
	return nil
}

// Has implements Store.
func (s *MemStore) Has(b core.Block) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blocks[blockKey{b.ID, b.GenStamp}]
	return ok
}

// Blocks implements Store.
func (s *MemStore) Blocks() []core.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]core.Block, 0, len(s.blocks))
	for k, r := range s.blocks {
		out = append(out, core.Block{ID: k.id, GenStamp: k.gen, NumBytes: r.Size()})
	}
	sortBlocks(out)
	return out
}

// Used implements Store.
func (s *MemStore) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Close implements Store, dropping all content.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks = make(map[blockKey]memReplica)
	s.used = 0
	s.closed = true
	return nil
}

// DiskStore is a directory-backed block store. Each replica lives in
// one file named "blk_<id>_<gen>", so the store can be rebuilt from
// the directory listing on worker restart.
type DiskStore struct {
	dir string

	mu     sync.RWMutex
	sizes  map[blockKey]int64
	used   int64
	closed bool
}

// NewDiskStore opens (creating if needed) a directory-backed store and
// indexes any replica files already present.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating block directory: %w", err)
	}
	s := &DiskStore{dir: dir, sizes: make(map[blockKey]int64)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: listing block directory: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".crc") {
			continue // checksum sidecar
		}
		var id, gen uint64
		if _, err := fmt.Sscanf(e.Name(), "blk_%d_%d", &id, &gen); err != nil {
			continue // foreign file; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		key := blockKey{core.BlockID(id), core.GenerationStamp(gen)}
		s.sizes[key] = info.Size()
		s.used += info.Size()
	}
	return s, nil
}

// Dir returns the store's backing directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(b core.Block) string {
	return filepath.Join(s.dir, fmt.Sprintf("blk_%d_%d", uint64(b.ID), uint64(b.GenStamp)))
}

func (s *DiskStore) crcPath(b core.Block) string {
	return s.path(b) + ".crc"
}

// The chunk-sum sidecar "blk_<id>_<gen>.crc" holds sumsMagic, the
// chunk size as a little-endian uint32, then one little-endian uint32
// CRC-32C per chunk. A sidecar in any other form (such as the hex
// whole-replica CRC older versions wrote) is ignored, and the replica
// is treated as stored without sums.
const sumsMagic = "OCS1"

func encodeSums(sums []uint32) []byte {
	out := make([]byte, 0, 8+4*len(sums))
	out = append(out, sumsMagic...)
	out = binary.LittleEndian.AppendUint32(out, ChunkSize)
	for _, v := range sums {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

// readSums loads the sidecar of a replica of size bytes: nil when it is
// absent or not in the current format, core.ErrCorrupt when it is but
// does not cover the replica chunk for chunk.
func (s *DiskStore) readSums(b core.Block, size int64) ([]uint32, error) {
	raw, err := os.ReadFile(s.crcPath(b))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: reading block checksums: %w", err)
	}
	if len(raw) < 8 || string(raw[:4]) != sumsMagic || binary.LittleEndian.Uint32(raw[4:8]) != ChunkSize {
		return nil, nil
	}
	raw = raw[8:]
	if len(raw) != 4*numChunks(size) {
		return nil, fmt.Errorf("storage: block %s: %d checksum bytes for %d bytes of data: %w",
			b.ID, len(raw), size, core.ErrCorrupt)
	}
	sums := make([]uint32, len(raw)/4)
	for i := range sums {
		sums[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return sums, nil
}

// Put implements Store. The content is written to a temporary file and
// renamed into place so that a crash mid-write never leaves a
// truncated replica that could be mistaken for a valid one.
func (s *DiskStore) Put(b core.Block, r io.Reader) (int64, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return 0, core.ErrShutdown
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-blk-*")
	if err != nil {
		return 0, fmt.Errorf("storage: creating temp block file: %w", err)
	}
	tmpName := tmp.Name()
	var sums chunkSummer
	n, err := io.Copy(io.MultiWriter(tmp, &sums), r)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("storage: writing block %s: %w", b.ID, err)
	}
	if err := os.WriteFile(s.crcPath(b), encodeSums(sums.Sums()), 0o644); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("storage: writing block checksums: %w", err)
	}
	if err := os.Rename(tmpName, s.path(b)); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("storage: committing block %s: %w", b.ID, err)
	}
	key := blockKey{b.ID, b.GenStamp}
	s.mu.Lock()
	if old, ok := s.sizes[key]; ok {
		s.used -= old
	}
	s.sizes[key] = n
	s.used += n
	s.mu.Unlock()
	return n, nil
}

// OpenReplica implements Store.
func (s *DiskStore) OpenReplica(b core.Block) (Replica, error) {
	f, err := os.Open(s.path(b))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: opening block %s: %w", b.ID, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: opening block %s: %w", b.ID, err)
	}
	sums, err := s.readSums(b, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &diskReplica{f: f, size: fi.Size(), sums: sums}, nil
}

// diskReplica reads an open replica file chunk by chunk through one
// pooled buffer.
type diskReplica struct {
	f     *os.File
	size  int64
	sums  []uint32
	buf   []byte
	alloc int64
}

func (r *diskReplica) Size() int64       { return r.size }
func (r *diskReplica) Sums() []uint32    { return r.sums }
func (r *diskReplica) AllocBytes() int64 { return r.alloc }

func (r *diskReplica) ReadChunk(off int64, n int) ([]byte, error) {
	if len(r.buf) < n {
		if r.buf != nil {
			bufpool.Put(r.buf)
		}
		var fresh bool
		r.buf, fresh = bufpool.Get(max(n, ChunkSize))
		if fresh {
			r.alloc += int64(len(r.buf))
		}
	}
	m, err := r.f.ReadAt(r.buf[:n], off)
	if m < n {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return r.buf[:n], nil
}

func (r *diskReplica) Close() error {
	if r.buf != nil {
		bufpool.Put(r.buf)
		r.buf = nil
	}
	return r.f.Close()
}

// Open implements Store.
func (s *DiskStore) Open(b core.Block) (io.ReadCloser, error) {
	f, err := os.Open(s.path(b))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: opening block %s: %w", b.ID, err)
	}
	return f, nil
}

// Delete implements Store.
func (s *DiskStore) Delete(b core.Block) error {
	key := blockKey{b.ID, b.GenStamp}
	s.mu.Lock()
	size, ok := s.sizes[key]
	if ok {
		delete(s.sizes, key)
		s.used -= size
	}
	s.mu.Unlock()
	err := os.Remove(s.path(b))
	os.Remove(s.crcPath(b)) // best-effort sidecar cleanup
	if os.IsNotExist(err) || (!ok && err == nil) {
		if !ok {
			return fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
		}
		return nil
	}
	return err
}

// Has implements Store.
func (s *DiskStore) Has(b core.Block) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.sizes[blockKey{b.ID, b.GenStamp}]
	return ok
}

// Blocks implements Store.
func (s *DiskStore) Blocks() []core.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]core.Block, 0, len(s.sizes))
	for k, size := range s.sizes {
		out = append(out, core.Block{ID: k.id, GenStamp: k.gen, NumBytes: size})
	}
	sortBlocks(out)
	return out
}

// Used implements Store.
func (s *DiskStore) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Close implements Store. On-disk content is preserved.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// readAllSized reads r to EOF like io.ReadAll but pre-sizes the buffer
// from the declared block length, avoiding the growth-doubling copies
// that dominate large in-memory writes.
func readAllSized(r io.Reader, sizeHint int64) ([]byte, error) {
	buf := make([]byte, 0, max(int(sizeHint), 512))
	for {
		if len(buf) == cap(buf) {
			// A stream of exactly the declared size ends here. Probe
			// for EOF before growing: growing first would copy the
			// whole buffer and leave the stored replica with slack.
			var probe [512]byte
			n, err := r.Read(probe[:])
			if n > 0 {
				buf = append(buf, probe[:n]...)
			}
			if err == io.EOF {
				return buf, nil
			}
			if err != nil {
				return buf, err
			}
			continue
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if len(buf) < cap(buf)/2 {
				// A short stream, such as a file's last block: give
				// the unused capacity back.
				buf = bytes.Clone(buf)
			}
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func sortBlocks(bs []core.Block) {
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].ID != bs[j].ID {
			return bs[i].ID < bs[j].ID
		}
		return bs[i].GenStamp < bs[j].GenStamp
	})
}

// TierFromKind maps a media kind string from worker configuration
// ("memory", "ssd", "hdd", "remote") to its storage tier.
func TierFromKind(kind string) (core.StorageTier, error) {
	t, err := core.ParseTier(strings.TrimSpace(kind))
	if err != nil || !t.Valid() {
		return 0, fmt.Errorf("storage: invalid media kind %q", kind)
	}
	return t, nil
}
