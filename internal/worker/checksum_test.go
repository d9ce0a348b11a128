package worker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// chunkBlockSize spans three whole chunks and a short fourth one.
const chunkBlockSize = 3*storage.ChunkSize + 1234

func seededBytes(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// putBlock writes payload as blk onto one media of w through the data
// port.
func putBlock(t *testing.T, w *Worker, blk core.Block, storageID core.StorageID, payload []byte) {
	t.Helper()
	bw, err := rpc.OpenBlockWriter(blk, []rpc.PipelineTarget{
		{Worker: w.ID(), Address: w.DataAddr(), Storage: storageID},
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Commit(); err != nil {
		t.Fatal(err)
	}
}

// readRange reads [off, off+n) of blk from one media of w through the
// data port. openErr reports a refused read, err a failed stream.
func readRange(w *Worker, blk core.Block, storageID core.StorageID, off, n int64) (got []byte, openErr, err error) {
	rc, _, openErr := rpc.OpenBlockReader(w.DataAddr(), blk, storageID, off, n)
	if openErr != nil {
		return nil, openErr, nil
	}
	defer rc.Close()
	got, err = io.ReadAll(rc)
	return got, nil, err
}

// flipByte corrupts byte off of a stored replica: in its file for the
// HDD media, through the memory media's zero-copy chunk view (which
// aliases the stored bytes) otherwise.
func flipByte(t *testing.T, w *Worker, dir string, storageID core.StorageID, blk core.Block, off int64) {
	t.Helper()
	if storageID == "wtest:hdd0" {
		path := filepath.Join(dir, fmt.Sprintf("blk_%d_%d", blk.ID, blk.GenStamp))
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
	cr, err := w.Media()[storageID].OpenChunks(blk, off, 1, nil)
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

func corruptEvents(w *Worker) int {
	return len(w.journal.Since(0, "block_corrupt", 0).Events)
}

func TestReadRangesAcrossChunkBoundaries(t *testing.T) {
	_, w := testWorker(t)
	const cs = storage.ChunkSize
	payload := seededBytes(chunkBlockSize, 1)
	ranges := [][2]int64{
		{0, chunkBlockSize},
		{cs - 10, 20},
		{cs / 2, 2 * cs},
		{cs - 1, 2*cs + 2},
		{7, chunkBlockSize - 7},
		{3*cs + 1000, 234},
		{2 * cs, cs + 1234},
	}
	for i, id := range []core.StorageID{"wtest:mem0", "wtest:hdd0"} {
		blk := core.Block{ID: core.BlockID(20 + i), GenStamp: 1, NumBytes: chunkBlockSize}
		putBlock(t, w, blk, id, payload)
		for _, r := range ranges {
			got, openErr, err := readRange(w, blk, id, r[0], r[1])
			if openErr != nil || err != nil {
				t.Fatalf("%s range [%d, +%d): open %v, read %v", id, r[0], r[1], openErr, err)
			}
			if !bytes.Equal(got, payload[r[0]:r[0]+r[1]]) {
				t.Errorf("%s range [%d, +%d) returned wrong bytes", id, r[0], r[1])
			}
		}
	}
	if n := corruptEvents(w); n != 0 {
		t.Errorf("clean reads published %d block_corrupt events", n)
	}
}

func TestReadCatchesCorruptChunk(t *testing.T) {
	_, w, dir := testWorkerDir(t)
	const cs = storage.ChunkSize
	payload := seededBytes(chunkBlockSize, 2)
	for i, id := range []core.StorageID{"wtest:mem0", "wtest:hdd0"} {
		t.Run(string(id), func(t *testing.T) {
			blk := core.Block{ID: core.BlockID(30 + i), GenStamp: 1, NumBytes: chunkBlockSize}
			putBlock(t, w, blk, id, payload)
			flipByte(t, w, dir, id, blk, cs+500) // inside chunk 1
			before := corruptEvents(w)

			// A whole-block read streams the stored sums; the reader
			// rejects the corrupt chunk's packet before handing it out.
			got, _, err := readRange(w, blk, id, 0, -1)
			if !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("whole read: err = %v, want ErrCorrupt", err)
			}
			if len(got) != cs || !bytes.Equal(got, payload[:cs]) {
				t.Errorf("whole read delivered %d bytes before failing, want the %d clean ones", len(got), cs)
			}

			// A range starting inside the corrupt chunk is refused.
			_, openErr, _ := readRange(w, blk, id, cs+100, 1000)
			if !errors.Is(openErr, core.ErrCorrupt) {
				t.Errorf("range inside the corrupt chunk: open err = %v, want ErrCorrupt", openErr)
			}
			// A range stopping inside it is cut off mid-stream.
			got, openErr, err = readRange(w, blk, id, 10, cs+10)
			if openErr != nil || err == nil {
				t.Errorf("range ending in the corrupt chunk: open %v, read %v (%d bytes), want a failed stream", openErr, err, len(got))
			}
			if n := corruptEvents(w) - before; n != 2 {
				t.Errorf("published %d block_corrupt events, want 2 (one per partial-chunk read)", n)
			}

			// Ranges clear of the corrupt chunk still serve.
			got, openErr, err = readRange(w, blk, id, 2*cs+3, 2000)
			if openErr != nil || err != nil || !bytes.Equal(got, payload[2*cs+3:2*cs+2003]) {
				t.Errorf("clean range: open %v, read %v", openErr, err)
			}
		})
	}
}

func TestStoredSumsSurviveWorkerRestart(t *testing.T) {
	m, w, dir := testWorkerDir(t)
	const cs = storage.ChunkSize
	payload := seededBytes(chunkBlockSize, 3)
	kept := core.Block{ID: 40, GenStamp: 1, NumBytes: chunkBlockSize}
	bare := core.Block{ID: 41, GenStamp: 1, NumBytes: chunkBlockSize}
	putBlock(t, w, kept, "wtest:hdd0", payload)
	putBlock(t, w, bare, "wtest:hdd0", payload)
	w.Close()

	// A replica whose sidecar is gone is served with fresh sums.
	if err := os.Remove(filepath.Join(dir, "blk_41_1.crc")); err != nil {
		t.Fatal(err)
	}
	w = startTestWorker(t, m, dir)
	for _, r := range [][2]int64{{0, chunkBlockSize}, {cs - 5, cs + 10}} {
		for _, blk := range []core.Block{kept, bare} {
			got, openErr, err := readRange(w, blk, "wtest:hdd0", r[0], r[1])
			if openErr != nil || err != nil || !bytes.Equal(got, payload[r[0]:r[0]+r[1]]) {
				t.Errorf("%s range [%d, +%d) after restart: open %v, read %v", blk.ID, r[0], r[1], openErr, err)
			}
		}
	}

	// The restarted worker serves the sums stored before the restart:
	// corruption since then is caught on a whole-block read.
	flipByte(t, w, dir, "wtest:hdd0", kept, 2*cs+1)
	if _, _, err := readRange(w, kept, "wtest:hdd0", 0, -1); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("whole read of a replica corrupted after restart: err = %v, want ErrCorrupt", err)
	}
}

// replicateOverDataPort asks w to copy blk onto target from src, and
// returns the ack's error string.
func replicateOverDataPort(t *testing.T, w *Worker, blk core.Block, target core.StorageID, src core.BlockLocation) string {
	t.Helper()
	conn, err := net.Dial("tcp", w.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{rpc.OpReplicateBlock})
	if err := rpc.WriteFrame(conn, rpc.ReplicateBlockHeader{
		Block: blk, Target: target, Sources: []core.BlockLocation{src},
	}); err != nil {
		t.Fatal(err)
	}
	var ack rpc.ReplicateBlockAck
	if err := rpc.ReadFrame(conn, &ack); err != nil {
		t.Fatal(err)
	}
	return ack.Err
}

func TestReplicateFromCorruptSourceStoresNothing(t *testing.T) {
	_, w, dir := testWorkerDir(t)
	payload := seededBytes(chunkBlockSize, 4)
	cases := []struct{ src, dst core.StorageID }{
		{"wtest:mem0", "wtest:hdd0"},
		{"wtest:hdd0", "wtest:mem0"},
	}
	for i, c := range cases {
		t.Run(string(c.src), func(t *testing.T) {
			blk := core.Block{ID: core.BlockID(50 + i), GenStamp: 1, NumBytes: chunkBlockSize}
			putBlock(t, w, blk, c.src, payload)
			flipByte(t, w, dir, c.src, blk, 2*storage.ChunkSize+9)
			usedBefore := w.Media()[c.dst].Used()
			// Naming another worker as the source sends the copy through
			// the data port, the path a remote re-replication takes.
			ackErr := replicateOverDataPort(t, w, blk, c.dst, core.BlockLocation{
				Worker: "peer", Address: w.DataAddr(), Storage: c.src,
			})
			if !errors.Is(rpc.DecodeError(ackErr), core.ErrCorrupt) {
				t.Errorf("replicate ack = %q, want ErrCorrupt", ackErr)
			}
			if w.Media()[c.dst].Has(blk) {
				t.Error("target holds a replica of the corrupt source")
			}
			if got := w.Media()[c.dst].Used(); got != usedBefore {
				t.Errorf("target Used = %d, want %d", got, usedBefore)
			}
		})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "blk_51_1" && e.Name() != "blk_51_1.crc" {
			t.Errorf("HDD directory holds %s after the failed copy", e.Name())
		}
	}
}
