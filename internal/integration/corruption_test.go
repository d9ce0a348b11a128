package integration

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// corruptOneReplica flips bytes in the on-disk file of the block's
// first non-memory replica and returns the storage ID it hit.
func corruptOneReplica(t *testing.T, dir string, loc core.BlockLocation, blk core.Block) {
	t.Helper()
	// Storage IDs look like "node1:hdd0"; files live under
	// dir/node1/hdd0/blk_<id>_<gen>.
	parts := strings.SplitN(string(loc.Storage), ":", 2)
	blockPath := filepath.Join(dir, parts[0], parts[1],
		blk.String()[:strings.Index(blk.String(), " ")])
	// core.Block.String() = "blk_1_1 (Nb)" — trim the size suffix.
	data, err := os.ReadFile(blockPath)
	if err != nil {
		t.Fatalf("reading replica file %s: %v", blockPath, err)
	}
	for i := 0; i < len(data); i += 101 {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(blockPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptReplicaDetectedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultClusterConfig(dir)
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, _ := c.Client("")
	defer fs.Close()

	payload := randomBytes(2<<20, 61)
	// HDD-only replicas so every copy lives in a corruptible file.
	if err := fs.WriteFile("/fragile", payload, core.NewReplicationVector(0, 0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.GetFileBlockLocations("/fragile", 0, -1)
	if err != nil || len(blocks) == 0 {
		t.Fatal(err)
	}
	victim := blocks[0].Locations[0]
	corruptOneReplica(t, dir, victim, blocks[0].Block)

	// The read must fail over to the healthy replica and still return
	// the right content, while reporting the corrupt one.
	got, err := fs.ReadFile("/fragile")
	if err != nil {
		t.Fatalf("read with corrupt first replica: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failover read returned wrong content")
	}

	// The master must repair: the corrupt replica is dropped and a
	// fresh one re-replicated, restoring 2 healthy HDD replicas not
	// including the corrupted media.
	waitFor(t, 15*time.Second, "corrupt replica to be replaced", func() bool {
		blocks, err := fs.GetFileBlockLocations("/fragile", 0, -1)
		if err != nil {
			return false
		}
		for _, b := range blocks {
			healthy := 0
			for _, loc := range b.Locations {
				if loc.Storage != victim.Storage {
					healthy++
				}
			}
			if healthy < 2 {
				return false
			}
		}
		return true
	})
}

func TestCorruptionErrorCodeCrossesWire(t *testing.T) {
	dir := t.TempDir()
	c, err := StartCluster(DefaultClusterConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, _ := c.Client("")
	defer fs.Close()

	payload := randomBytes(1<<20, 67)
	// Single replica: corruption has nowhere to fail over, so the
	// client must surface ErrCorrupt itself.
	if err := fs.WriteFile("/single", payload, core.NewReplicationVector(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	blocks, _ := fs.GetFileBlockLocations("/single", 0, -1)
	corruptOneReplica(t, dir, blocks[0].Locations[0], blocks[0].Block)

	_, err = fs.ReadFile("/single")
	if !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("read of corrupt single-replica file: err = %v, want ErrCorrupt", err)
	}
}

// flipMemoryByte corrupts byte off of a memory replica in place,
// through the media's zero-copy chunk view (which aliases the stored
// bytes): the memory-tier analogue of bit rot.
func flipMemoryByte(t *testing.T, c *Cluster, loc core.BlockLocation, blk core.Block, off int64) {
	t.Helper()
	for _, w := range c.Workers {
		if w.ID() != loc.Worker {
			continue
		}
		cr, err := w.Media()[loc.Storage].OpenChunks(blk, off, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cr.Close()
		p, _, err := cr.Next()
		if err != nil {
			t.Fatal(err)
		}
		p[0] ^= 0xFF
		return
	}
	t.Fatalf("no worker %s", loc.Worker)
}

// replicaVerifies reports whether the replica at loc passes a local
// scrub against its stored chunk sums.
func replicaVerifies(c *Cluster, loc core.BlockLocation, blk core.Block) bool {
	for _, w := range c.Workers {
		if w.ID() == loc.Worker {
			m, ok := w.Media()[loc.Storage]
			return ok && m.Verify(blk) == nil
		}
	}
	return false
}

func TestCorruptMemoryReplicaDetectedAndRepaired(t *testing.T) {
	c, err := StartCluster(DefaultClusterConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, _ := c.Client("")
	defer fs.Close()

	payload := randomBytes(2<<20, 71)
	if err := fs.WriteFile("/hot", payload, core.NewReplicationVector(2, 0, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.GetFileBlockLocations("/hot", 0, -1)
	if err != nil || len(blocks) == 0 || len(blocks[0].Locations) != 2 {
		t.Fatalf("locations: %v, %+v", err, blocks)
	}
	blk := blocks[0].Block
	victim := blocks[0].Locations[0]
	flipMemoryByte(t, c, victim, blk, 5*64<<10+17)

	// The stored sum of the flipped chunk travels with it; the client
	// rejects that packet and resumes from the other replica. Reading
	// on the victim's node makes the local, corrupt replica the first
	// choice.
	local, err := c.Client(string(victim.Worker))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	got, err := local.ReadFile("/hot")
	if err != nil {
		t.Fatalf("read with a corrupt memory replica: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failover read returned wrong content")
	}
	page, _, err := fs.Events(0, "block_corrupt", 0)
	if err != nil || len(page.Events) == 0 {
		t.Errorf("master journaled no block_corrupt event (err %v)", err)
	}

	// The master drops the corrupt replica and re-replicates: two
	// memory replicas again, both clean.
	waitFor(t, 15*time.Second, "corrupt memory replica to be replaced", func() bool {
		blocks, err := fs.GetFileBlockLocations("/hot", 0, -1)
		if err != nil || len(blocks[0].Locations) < 2 {
			return false
		}
		for _, loc := range blocks[0].Locations {
			if loc.Tier != core.TierMemory || !replicaVerifies(c, loc, blk) {
				return false
			}
		}
		return true
	})
}

func TestCorruptSingleMemoryReplicaSurfacesErrCorrupt(t *testing.T) {
	c, err := StartCluster(DefaultClusterConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, _ := c.Client("")
	defer fs.Close()

	payload := randomBytes(1<<20, 73)
	if err := fs.WriteFile("/single-mem", payload, core.NewReplicationVector(1, 0, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	blocks, _ := fs.GetFileBlockLocations("/single-mem", 0, -1)
	flipMemoryByte(t, c, blocks[0].Locations[0], blocks[0].Block, 3)

	if _, err := fs.ReadFile("/single-mem"); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("read of corrupt single-replica memory file: err = %v, want ErrCorrupt", err)
	}
}
