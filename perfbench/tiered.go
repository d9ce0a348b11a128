package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/integration"
)

// tiered: Zipf reads over a working set of sz.Slots files, larger
// than the memory tier, on a cluster throttled to the paper's Table 2
// speeds (scaled by sz.ThrottleScale) with the tier mover on. The hot
// set rotates at seeded points of the run. Every sz.WriteEvery-th op
// replaces a random file with a new version whose vector leaves the
// tiers unspecified, so MOOP placement decides where it lands. Read
// latency is set by which tier serves each block.
type tiered struct {
	base
	perms   [][]int // rank -> slot, one permutation per rotation
	perm    atomic.Int32
	version []atomic.Uint64 // current version per slot
	nextVer atomic.Uint64
	per     []*tieredClient
}

type tieredClient struct {
	zipf            *rand.Zipf
	step            int
	data, got, want []byte
	retired         []retiredFile
}

// retiredFile is a replaced version, deleted once no reader that
// resolved it before the replacement can still be reading it.
type retiredFile struct {
	path string
	at   time.Time
}

const retireGrace = 2 * time.Second

func startTiered(dir string, sz sizes, seed int64) (workload, error) {
	cfg := integration.DefaultClusterConfig(dir)
	cfg.NumWorkers = 2
	cfg.BlockSize = sz.BlockBytes
	cfg.MemCapacity = sz.MemBytes
	cfg.SSDCapacity = sz.SSDBytes
	cfg.HDDCapacity = sz.HDDBytes
	cfg.Throttle = true
	cfg.ThrottleScale = sz.ThrottleScale
	cfg.HeatHalfLife = 2 * time.Second
	cfg.MoverInterval = 200 * time.Millisecond
	cfg.MoverCooldown = time.Second
	cfg.MoverMaxMoves = 8
	t := &tiered{version: make([]atomic.Uint64, sz.Slots)}
	if err := t.start(cfg, sz, seed); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k <= sz.Rotations; k++ {
		t.perms = append(t.perms, rng.Perm(sz.Slots))
	}
	for range t.fss {
		t.per = append(t.per, &tieredClient{
			data: make([]byte, sz.FileBytes),
			got:  make([]byte, sz.FileBytes+1),
			want: make([]byte, sz.FileBytes),
		})
	}
	if err := t.fss[0].Mkdir("/tiered", true); err != nil {
		t.close()
		return nil, err
	}
	err := t.each(func(c *clientRun) error {
		data := t.per[c.id].data
		for s := c.id; s < sz.Slots; s += len(t.fss) {
			t.gen.fill(data, slotID(s, 0))
			if err := putFile(c, t.fss[c.id], t.path(s, 0), data, t.rv); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func slotID(slot int, ver uint64) uint64 { return uint64(slot)<<40 | ver }

func (t *tiered) path(slot int, ver uint64) string {
	return fmt.Sprintf("/tiered/s%03d-v%d", slot, ver)
}

func (t *tiered) rotate(k int) { t.perm.Store(int32(k)) }

func (t *tiered) op(c *clientRun) {
	tc := t.per[c.id]
	fs := t.fss[c.id]
	if tc.zipf == nil {
		tc.zipf = rand.NewZipf(c.rng, t.sz.ZipfS, 1, uint64(t.sz.Slots-1))
	}
	if len(tc.retired) > 0 && time.Since(tc.retired[0].at) > retireGrace {
		old := tc.retired[0].path
		if c.timed("delete", func() error { return deletePath(c, fs, old) }) {
			tc.retired = tc.retired[1:]
		}
		return
	}
	tc.step++
	if tc.step%t.sz.WriteEvery == 0 {
		slot := c.rng.Intn(t.sz.Slots)
		ver := t.nextVer.Add(1)
		path := t.path(slot, ver)
		t.gen.fill(tc.data, slotID(slot, ver))
		if c.timed("write", func() error { return putFile(c, fs, path, tc.data, t.rv) }) {
			c.wrBytes += int64(len(tc.data))
			notePlacement(c, fs, path)
			old := t.version[slot].Swap(ver)
			tc.retired = append(tc.retired, retiredFile{t.path(slot, old), time.Now()})
		}
		return
	}
	slot := t.perms[t.perm.Load()][tc.zipf.Uint64()]
	ver := t.version[slot].Load()
	var got []byte
	if c.timed("read", func() (err error) {
		got, err = getFile(c, fs, t.path(slot, ver), tc.got)
		return err
	}) {
		c.readBytes += int64(len(got))
		t.expect(tc.want, slotID(slot, ver))
		if !bytes.Equal(got, tc.want) {
			c.problem("tiered: %s read back %d bytes that differ from what was written", t.path(slot, ver), len(got))
		}
	}
}

func (t *tiered) hotPaths(k int) []string {
	perm := t.perms[t.perm.Load()]
	var out []string
	for r := 0; r < k && r < len(perm); r++ {
		out = append(out, t.path(perm[r], t.version[perm[r]].Load()))
	}
	return out
}

// check waits for the mover to finish its in-flight moves, then
// checks that every file's per-tier replica counts satisfy its
// vector. A file caught mid-move is checked again after the mover
// settles.
func (t *tiered) check() []string {
	fs := t.fss[0]
	entries, err := fs.List("/tiered")
	if err != nil {
		return []string{fmt.Sprintf("tiered: list: %v", err)}
	}
	want := map[string]bool{}
	for s := range t.version {
		want[t.path(s, t.version[s].Load())] = true
	}
	var pending []string
	for _, e := range entries {
		delete(want, e.Path)
		pending = append(pending, e.Path)
	}
	var problems []string
	for p := range want {
		problems = append(problems, fmt.Sprintf("tiered: current version %s is missing", p))
	}
	for attempt := 0; attempt < 5 && len(pending) > 0; attempt++ {
		t.awaitMover(5 * time.Second)
		var again []string
		for _, p := range pending {
			if msg := t.checkVector(p); msg != "" {
				if attempt == 4 {
					problems = append(problems, msg)
				}
				again = append(again, p)
			}
		}
		pending = again
	}
	return problems
}

// checkVector reports how path's replicas fail its vector, or "".
func (t *tiered) checkVector(path string) string {
	fs := t.fss[0]
	st, err := fs.Stat(path)
	if err != nil {
		return fmt.Sprintf("tiered: stat %s: %v", path, err)
	}
	blocks, err := fs.GetFileBlockLocations(path, 0, -1)
	if err != nil {
		return fmt.Sprintf("tiered: locations of %s: %v", path, err)
	}
	for _, b := range blocks {
		var counts [core.NumTiers]int
		for _, loc := range b.Locations {
			counts[loc.Tier]++
		}
		if !satisfies(st.RepVector, counts) {
			return fmt.Sprintf("tiered: %s block %d replicas per tier %v do not satisfy %s", path, b.Block.ID, counts, st.RepVector)
		}
	}
	return ""
}

// satisfies reports whether per-tier replica counts meet vector v:
// each pinned tier holds at least its count and the total matches.
func satisfies(v core.ReplicationVector, counts [core.NumTiers]int) bool {
	total := 0
	for tier := core.StorageTier(0); tier < core.StorageTier(core.NumTiers); tier++ {
		if counts[tier] < v.Tier(tier) {
			return false
		}
		total += counts[tier]
	}
	return total == v.Total()
}

// awaitMover polls until the mover has no move in flight.
func (t *tiered) awaitMover(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := t.fss[0].Mover()
		if err == nil && len(st.InFlight) == 0 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}
