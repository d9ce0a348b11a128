package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"repro/internal/core"
)

// chunkTestData returns n seeded pseudo-random bytes.
func chunkTestData(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// testMediaPair returns an unthrottled memory media and a disk media
// with its backing directory.
func testMediaPair(t *testing.T) (mem, disk *Media, dir string) {
	t.Helper()
	mem = testMedia(t, core.TierMemory, 64<<20, 0, 0)
	dir = t.TempDir()
	disk, err := OpenMedia(MediaConfig{ID: "w1:hdd0", Tier: core.TierHDD, Capacity: 64 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return mem, disk, dir
}

// serveRange drains a ChunkReader, checking that every piece carries
// the CRC-32C of its own bytes, and returns the concatenation.
func serveRange(t *testing.T, m *Media, b core.Block, off, n int64) ([]byte, error) {
	t.Helper()
	cr, err := m.OpenChunks(b, off, n, nil)
	if err != nil {
		return nil, err
	}
	defer cr.Close()
	var out []byte
	for {
		p, sum, err := cr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if len(p) == 0 || len(p) > ChunkSize {
			t.Fatalf("piece of %d bytes", len(p))
		}
		if got := crc32.Checksum(p, crcTable); got != sum {
			return out, fmt.Errorf("piece at %d: sum %08x, content %08x: %w", off+int64(len(out)), sum, got, core.ErrCorrupt)
		}
		out = append(out, p...)
	}
}

// flipStoredByte corrupts byte off of a stored replica in place: in
// the replica file for disk media, through the zero-copy chunk view
// for memory media (which aliases the stored bytes).
func flipStoredByte(t *testing.T, m *Media, dir string, b core.Block, off int64) {
	t.Helper()
	if m.Tier() != core.TierMemory {
		path := filepath.Join(dir, fmt.Sprintf("blk_%d_%d", b.ID, b.GenStamp))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	cr, err := m.OpenChunks(b, off, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	p, _, err := cr.Next()
	if err != nil {
		t.Fatal(err)
	}
	p[0] ^= 0xFF
}

func TestChunkReaderServesStoredSums(t *testing.T) {
	mem, disk, _ := testMediaPair(t)
	data := chunkTestData(3*ChunkSize+1234, 1)
	b := core.Block{ID: 1, GenStamp: 1, NumBytes: int64(len(data))}
	for _, m := range []*Media{mem, disk} {
		t.Run(m.Tier().String(), func(t *testing.T) {
			if _, err := m.Put(b, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			rep, err := m.store.OpenReplica(b)
			if err != nil {
				t.Fatal(err)
			}
			sums := rep.Sums()
			rep.Close()
			if len(sums) != 4 {
				t.Fatalf("stored %d chunk sums, want 4", len(sums))
			}
			cr, err := m.OpenChunks(b, 0, b.NumBytes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Connections(); got != 1 {
				t.Errorf("connections while serving = %d, want 1", got)
			}
			var out []byte
			for i := 0; ; i++ {
				p, sum, err := cr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if sum != sums[i] {
					t.Errorf("piece %d carries %08x, stored sum is %08x", i, sum, sums[i])
				}
				out = append(out, p...)
			}
			cr.Close()
			cr.Close()
			if got := m.Connections(); got != 0 {
				t.Errorf("connections after Close = %d, want 0", got)
			}
			if !bytes.Equal(out, data) {
				t.Fatal("whole-replica serve returned wrong bytes")
			}
			if err := m.Verify(b); err != nil {
				t.Errorf("Verify of a clean replica: %v", err)
			}
		})
	}
}

func TestChunkReaderUnalignedRanges(t *testing.T) {
	mem, disk, _ := testMediaPair(t)
	data := chunkTestData(3*ChunkSize+1234, 2)
	b := core.Block{ID: 2, GenStamp: 1, NumBytes: int64(len(data))}
	ranges := [][2]int64{
		{0, 1},
		{100, 256},
		{ChunkSize - 10, 20},             // straddles one boundary
		{ChunkSize, ChunkSize},           // exactly one chunk
		{ChunkSize / 2, 2 * ChunkSize},   // starts and stops mid-chunk
		{5, 3*ChunkSize + 1229},          // to the end from mid-chunk
		{3 * ChunkSize, 1234},            // the short last chunk
		{3*ChunkSize + 1000, 234},        // tail of the short last chunk
		{int64(len(data)), 0},            // empty range at the end
		{ChunkSize - 1, 2*ChunkSize + 2}, // one byte either side
		{2*ChunkSize + 7, int64(len(data)) - 2*ChunkSize - 7},
	}
	for _, m := range []*Media{mem, disk} {
		t.Run(m.Tier().String(), func(t *testing.T) {
			if _, err := m.Put(b, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			for _, r := range ranges {
				got, err := serveRange(t, m, b, r[0], r[1])
				if err != nil {
					t.Fatalf("range [%d, +%d): %v", r[0], r[1], err)
				}
				if !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
					t.Errorf("range [%d, +%d) returned wrong bytes", r[0], r[1])
				}
			}
			if _, err := m.OpenChunks(b, 10, b.NumBytes, nil); err == nil {
				t.Error("range past the replica end opened")
			}
			if got := m.Connections(); got != 0 {
				t.Errorf("connections after serving = %d, want 0", got)
			}
		})
	}
}

func TestChunkReaderCatchesCorruption(t *testing.T) {
	mem, disk, dir := testMediaPair(t)
	data := chunkTestData(3*ChunkSize+1234, 3)
	for i, m := range []*Media{mem, disk} {
		b := core.Block{ID: core.BlockID(10 + i), GenStamp: 1, NumBytes: int64(len(data))}
		t.Run(m.Tier().String(), func(t *testing.T) {
			if _, err := m.Put(b, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			flipStoredByte(t, m, dir, b, ChunkSize+500) // inside chunk 1

			if err := m.Verify(b); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("Verify: err = %v, want ErrCorrupt", err)
			}
			// A whole chunk goes out under its stored sum unchecked:
			// the packet reader downstream catches the mismatch.
			if _, err := serveRange(t, m, b, 0, b.NumBytes); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("whole read: err = %v, want the piece's sum to mismatch", err)
			}
			// A range starting or stopping inside the corrupt chunk is
			// checked against the stored sum before it goes out.
			for _, r := range [][2]int64{{ChunkSize + 100, 1000}, {10, ChunkSize + 10}, {ChunkSize + 600, ChunkSize}} {
				if _, err := serveRange(t, m, b, r[0], r[1]); !errors.Is(err, core.ErrCorrupt) {
					t.Errorf("range [%d, +%d): err = %v, want ErrCorrupt", r[0], r[1], err)
				}
			}
			// Ranges clear of the corrupt chunk still serve.
			got, err := serveRange(t, m, b, 2*ChunkSize+3, 2000)
			if err != nil || !bytes.Equal(got, data[2*ChunkSize+3:2*ChunkSize+2003]) {
				t.Errorf("clean range: err = %v, equal = %v", err, bytes.Equal(got, data[2*ChunkSize+3:2*ChunkSize+2003]))
			}
		})
	}
}

func TestDiskStoreChunkSumsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := chunkTestData(2*ChunkSize+99, 4)
	b := blk(7, int64(len(data)))
	if _, err := s.Put(b, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s2.OpenReplica(b)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	want := chunkSums(data)
	got := rep.Sums()
	if len(got) != len(want) {
		t.Fatalf("reopened store has %d sums, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sum %d = %08x, want %08x", i, got[i], want[i])
		}
	}
}

func TestDiskReplicaWithoutUsableSidecarServesFreshSums(t *testing.T) {
	data := chunkTestData(2*ChunkSize+99, 5)
	b := core.Block{ID: 8, GenStamp: 1, NumBytes: int64(len(data))}
	sidecars := map[string]func(path string) error{
		"missing": os.Remove,
		// The hex whole-replica CRC of the previous sidecar format.
		"legacy": func(path string) error {
			return os.WriteFile(path, fmt.Appendf(nil, "%08x", crc32.Checksum(data, crcTable)), 0o644)
		},
	}
	for name, mangle := range sidecars {
		t.Run(name, func(t *testing.T) {
			_, disk, dir := testMediaPair(t)
			if _, err := disk.Put(b, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			if err := mangle(filepath.Join(dir, "blk_8_1.crc")); err != nil {
				t.Fatal(err)
			}
			if err := disk.Verify(b); err != nil {
				t.Errorf("Verify without sums: %v", err)
			}
			got, err := serveRange(t, disk, b, 0, b.NumBytes)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("whole read: err = %v, equal = %v", err, bytes.Equal(got, data))
			}
			got, err = serveRange(t, disk, b, ChunkSize-3, 10)
			if err != nil || !bytes.Equal(got, data[ChunkSize-3:ChunkSize+7]) {
				t.Fatalf("ranged read: err = %v", err)
			}
		})
	}
}

func TestDiskReplicaSidecarCoveringWrongLengthIsCorrupt(t *testing.T) {
	_, disk, dir := testMediaPair(t)
	data := chunkTestData(2*ChunkSize+99, 6)
	b := core.Block{ID: 9, GenStamp: 1, NumBytes: int64(len(data))}
	if _, err := disk.Put(b, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	// Truncate the replica by a chunk: its sidecar now covers more
	// chunks than the file holds.
	if err := os.Truncate(filepath.Join(dir, "blk_9_1"), ChunkSize+99); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.OpenChunks(b, 0, 10, nil); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("OpenChunks: err = %v, want ErrCorrupt", err)
	}
	if err := disk.Verify(b); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("Verify: err = %v, want ErrCorrupt", err)
	}
}

// TestMemStoreExactSizeKeepsNoSlack checks that a replica whose stream
// matches its declared size is stored without spare capacity, and that
// short and oversize streams still round-trip, whatever the pieces the
// source reader hands out.
func TestMemStoreExactSizeKeepsNoSlack(t *testing.T) {
	cases := []struct {
		name     string
		declared int64
		size     int
	}{
		{"exact", 1 << 20, 1 << 20},
		{"short", 1 << 20, 1000},
		{"oversize", 100 << 10, 300<<10 + 7},
		{"undeclared", 0, 5000},
	}
	readers := map[string]func([]byte) io.Reader{
		"whole":   func(d []byte) io.Reader { return bytes.NewReader(d) },
		"onebyte": func(d []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(d)) },
		"dataerr": func(d []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(d)) },
	}
	for _, c := range cases {
		for rname, reader := range readers {
			t.Run(c.name+"/"+rname, func(t *testing.T) {
				data := chunkTestData(c.size, int64(c.size))
				s := NewMemStore()
				n, err := s.Put(core.Block{ID: 1, GenStamp: 1, NumBytes: c.declared}, reader(data))
				if err != nil {
					t.Fatal(err)
				}
				stored := s.blocks[blockKey{1, 1}].data
				if n != int64(len(data)) || !bytes.Equal(stored, data) {
					t.Fatalf("stored %d bytes (Put returned %d), want the %d written", len(stored), n, len(data))
				}
				if c.name == "exact" && cap(stored) != len(stored) {
					t.Errorf("exactly-sized replica has cap %d for len %d", cap(stored), len(stored))
				}
				if got := s.Used(); got != int64(len(data)) {
					t.Errorf("Used = %d, want %d", got, len(data))
				}
			})
		}
	}
}
