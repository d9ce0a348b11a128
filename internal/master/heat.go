package master

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/heat"
	"repro/internal/rpc"
)

// This file implements the master's access-heat plane: the per-block
// and per-file decayed access counters that tell the tier-management
// machinery which data is hot, and the tier-fitness report that ranks
// blocks whose replica tier vectors contradict their heat. Workers
// deliver raw per-block deltas piggybacked on heartbeats (foldHeat);
// the master's own metadata handlers record file-level opens and
// creates (touchFileRead/touchFileWrite). The monitor loop scans for
// misplacements at history cadence and journals transitions as
// heat_misplaced events, so the journal tells *when* a block went off
// tier, not just that it is.

// heatPlane bundles the master's heat state: the two decayed maps and
// the block → path index that joins worker-reported block heat back
// to namespace files.
type heatPlane struct {
	blocks *heat.Map[core.BlockID]
	files  *heat.Map[string]

	mu    sync.Mutex
	paths map[core.BlockID]string
	// flagged records the misplacement kind last journaled per block,
	// so the scan publishes entries and kind changes, not every tick.
	flagged map[core.BlockID]string
}

func newHeatPlane(halfLife time.Duration, capacity int) *heatPlane {
	if capacity <= 0 {
		capacity = heat.DefaultMapCapacity
	}
	fileCap := capacity / 4
	if fileCap < 1 {
		fileCap = 1
	}
	return &heatPlane{
		blocks:  heat.NewMap[core.BlockID](halfLife, capacity),
		files:   heat.NewMap[string](halfLife, fileCap),
		paths:   make(map[core.BlockID]string),
		flagged: make(map[core.BlockID]string),
	}
}

// indexBlock records which file a block belongs to.
func (hp *heatPlane) indexBlock(id core.BlockID, path string) {
	hp.mu.Lock()
	hp.paths[id] = path
	hp.mu.Unlock()
}

// pathOf resolves a block to its owning file ("" when unknown).
func (hp *heatPlane) pathOf(id core.BlockID) string {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	return hp.paths[id]
}

// forgetBlocks drops deleted blocks from the heat map, the path
// index, and the misplacement flag set.
func (hp *heatPlane) forgetBlocks(blocks []core.Block) {
	hp.mu.Lock()
	for _, b := range blocks {
		delete(hp.paths, b.ID)
		delete(hp.flagged, b.ID)
	}
	hp.mu.Unlock()
	for _, b := range blocks {
		hp.blocks.Remove(b.ID)
	}
}

// forgetPath drops a deleted file (or directory subtree) from the
// file heat map.
func (hp *heatPlane) forgetPath(path string) {
	prefix := strings.TrimSuffix(path, "/") + "/"
	hp.files.RemoveFunc(func(p string) bool {
		return p == path || strings.HasPrefix(p, prefix)
	})
}

// rename rewrites the file heat map and block path index after a
// namespace rename of src (file or directory) to dst.
func (hp *heatPlane) rename(src, dst string) {
	srcPrefix := strings.TrimSuffix(src, "/") + "/"
	rewrite := func(p string) (string, bool) {
		if p == src {
			return dst, true
		}
		if strings.HasPrefix(p, srcPrefix) {
			return dst + "/" + p[len(srcPrefix):], true
		}
		return p, false
	}
	hp.files.Rekey(rewrite)
	hp.mu.Lock()
	for id, p := range hp.paths {
		if np, ok := rewrite(p); ok {
			hp.paths[id] = np
		}
	}
	hp.mu.Unlock()
}

// foldHeat merges one heartbeat's worth of worker deltas into the
// cluster block heat map. Deltas for blocks the block map no longer
// knows are dropped: a heartbeat can carry heat gathered before the
// block's file was deleted, and folding it would re-track the block
// after forgetBlocks dropped it.
func (m *Master) foldHeat(deltas []heat.Delta) {
	if len(deltas) == 0 {
		return
	}
	nowNs := time.Now().UnixNano()
	for _, d := range deltas {
		if _, ok := m.blocks.Info(d.Block); !ok {
			continue
		}
		if d.ReadOps > 0 || d.ReadBytes > 0 {
			m.heat.blocks.Add(d.Block, heat.Read, int64(d.ReadOps), d.ReadBytes, nowNs)
		}
		if d.WriteOps > 0 || d.WriteBytes > 0 {
			m.heat.blocks.Add(d.Block, heat.Write, int64(d.WriteOps), d.WriteBytes, nowNs)
		}
	}
}

// touchFileRead records one file open-for-read covering roughly
// `bytes` bytes (the requested range).
func (m *Master) touchFileRead(path string, bytes int64) {
	m.heat.files.Add(path, heat.Read, 1, bytes, time.Now().UnixNano())
}

// touchFileWrite records one file create/overwrite.
func (m *Master) touchFileWrite(path string) {
	m.heat.files.Add(path, heat.Write, 1, 0, time.Now().UnixNano())
}

// Tier-fitness thresholds. Hotness is judged both absolutely (a block
// touched less than ~hotMinOps decayed ops is never "hot") and
// relative to the current hottest block, so the report adapts to the
// cluster's activity level instead of hard-coding an ops rate.
const (
	heatHotMinOps  = 2.0  // absolute floor for "hot"
	heatHotFrac    = 0.10 // hot ⇒ within 10× of the hottest block
	heatColdMinOps = 0.05 // absolute ceiling for "cold"
	heatColdFrac   = 0.01 // cold ⇒ under 1% of the hottest block
	defaultHeatTop = 20   // list cap when a request leaves Top zero
)

// tierRank orders tiers premium-first for misplacement scoring:
// MEMORY=0, SSD=1, HDD=2, REMOTE=3 — which is exactly the tier
// enumeration order.
func tierRank(t core.StorageTier) int { return int(t) }

// misplacedFrom computes the tier-fitness findings for a block heat
// snapshot: hot blocks whose replicas sit only on cold tiers
// (HDD/REMOTE) and cold blocks squatting on premium tiers
// (MEMORY/SSD), ranked by heat×misplacement. Blocks without located
// replicas are skipped — there is no tier vector to judge.
func (m *Master) misplacedFrom(entries []heat.Entry[core.BlockID], maxHeat float64) []rpc.MisplacedBlock {
	hotCut := heatHotMinOps
	if f := heatHotFrac * maxHeat; f > hotCut {
		hotCut = f
	}
	coldCut := heatColdMinOps
	if f := heatColdFrac * maxHeat; f > coldCut {
		coldCut = f
	}
	var out []rpc.MisplacedBlock
	for _, e := range entries {
		replicas := m.blocks.Replicas(e.Key)
		if len(replicas) == 0 {
			continue
		}
		var tiers [core.NumTiers]int
		best := tierRank(core.TierRemote)
		for _, r := range replicas {
			tiers[r.Tier]++
			if rank := tierRank(r.Tier); rank < best {
				best = rank
			}
		}
		h := e.Stat.Heat()
		mb := rpc.MisplacedBlock{
			Block:    e.Key,
			Path:     m.heat.pathOf(e.Key),
			Heat:     h,
			Tiers:    tiers,
			BestTier: core.StorageTier(best),
		}
		switch {
		case h >= hotCut && best >= tierRank(core.TierHDD):
			// Every replica is on HDD or REMOTE: a hot block with no
			// premium copy. The further the best replica is from SSD,
			// the worse the misplacement.
			mb.Kind = rpc.MisplacedHotOnCold
			mb.Misplacement = float64(best-1) / 3
			mb.Score = h * mb.Misplacement
		case h < coldCut && best <= tierRank(core.TierSSD):
			// A copy occupies MEMORY or SSD that nothing reads.
			mb.Kind = rpc.MisplacedColdOnPremium
			mb.Misplacement = float64(2-best) / 3
			mb.Score = mb.Misplacement
		default:
			continue
		}
		if be, ok := m.placementFor(e.Key); ok {
			mb.DecisionTraceID = be.TraceID
			mb.DecisionTimeNs = be.TimeNs
		}
		out = append(out, mb)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// heatAggregate summarises a block heat snapshot for telemetry
// samples: totals, the hottest block, per-tier heat (each block's
// heat split evenly across its replicas), and misplacement counts.
func (m *Master) heatAggregate(entries []heat.Entry[core.BlockID], misplaced []rpc.MisplacedBlock) rpc.HeatAggregate {
	agg := rpc.HeatAggregate{
		TrackedBlocks: len(entries),
		TrackedFiles:  m.heat.files.Len(),
	}
	for _, e := range entries {
		h := e.Stat.Heat()
		agg.TotalHeat += h
		if h > agg.MaxHeat {
			agg.MaxHeat = h
		}
		replicas := m.blocks.Replicas(e.Key)
		if len(replicas) == 0 {
			continue
		}
		share := h / float64(len(replicas))
		for _, r := range replicas {
			agg.TierHeat[r.Tier] += share
		}
	}
	for _, mb := range misplaced {
		if mb.Kind == rpc.MisplacedHotOnCold {
			agg.MisplacedHot++
		} else {
			agg.MisplacedCold++
		}
	}
	return agg
}

// liveHeatAggregate computes the current heat summary for telemetry
// samples.
func (m *Master) liveHeatAggregate() rpc.HeatAggregate {
	entries := m.heat.blocks.Snapshot(time.Now().UnixNano())
	var maxHeat float64
	if len(entries) > 0 {
		maxHeat = entries[0].Stat.Heat()
	}
	return m.heatAggregate(entries, m.misplacedFrom(entries, maxHeat))
}

// heatReport assembles the full heat document served by Master.GetHeat
// and /debug/heat. top caps each list (<= 0 selects defaultHeatTop);
// file restricts the block list to one file's blocks; misplacedOnly
// omits the file/block rankings.
func (m *Master) heatReport(top int, file string, misplacedOnly bool) rpc.HeatReport {
	if top <= 0 {
		top = defaultHeatTop
	}
	nowNs := time.Now().UnixNano()
	blockEntries := m.heat.blocks.Snapshot(nowNs)
	var maxHeat float64
	if len(blockEntries) > 0 {
		maxHeat = blockEntries[0].Stat.Heat()
	}
	misplaced := m.misplacedFrom(blockEntries, maxHeat)

	report := rpc.HeatReport{
		TimeNs:     nowNs,
		HalfLifeNs: int64(m.heat.blocks.HalfLife()),
		Aggregate:  m.heatAggregate(blockEntries, misplaced),
	}
	if len(misplaced) > top {
		misplaced = misplaced[:top]
	}
	report.Misplaced = misplaced
	if misplacedOnly {
		return report
	}

	for _, e := range m.heat.files.Snapshot(nowNs) {
		if file != "" && e.Key != file {
			continue
		}
		report.Files = append(report.Files, rpc.FileHeat{
			Path:   e.Key,
			Read:   rpc.HeatScore{Ops: e.Stat.Read.Ops, Bytes: e.Stat.Read.Bytes},
			Write:  rpc.HeatScore{Ops: e.Stat.Write.Ops, Bytes: e.Stat.Write.Bytes},
			Heat:   e.Stat.Heat(),
			LastNs: e.Stat.LastNs,
		})
		if len(report.Files) >= top {
			break
		}
	}
	for _, e := range blockEntries {
		path := m.heat.pathOf(e.Key)
		if file != "" && path != file {
			continue
		}
		bh := rpc.BlockHeat{
			Block:  e.Key,
			Path:   path,
			Read:   rpc.HeatScore{Ops: e.Stat.Read.Ops, Bytes: e.Stat.Read.Bytes},
			Write:  rpc.HeatScore{Ops: e.Stat.Write.Ops, Bytes: e.Stat.Write.Bytes},
			Heat:   e.Stat.Heat(),
			LastNs: e.Stat.LastNs,
		}
		for _, r := range m.blocks.Replicas(e.Key) {
			bh.Tiers[r.Tier]++
		}
		report.Blocks = append(report.Blocks, bh)
		if len(report.Blocks) >= top {
			break
		}
	}
	return report
}

// scanMisplaced recomputes the tier-fitness findings and journals
// blocks that entered the misplaced set (or changed kind) as
// heat_misplaced events; blocks that left the set are unflagged so a
// relapse journals again. The monitor loop runs this at history
// cadence — misplacement is a trend, not a per-tick alarm.
func (m *Master) scanMisplaced() {
	nowNs := time.Now().UnixNano()
	entries := m.heat.blocks.Snapshot(nowNs)
	var maxHeat float64
	if len(entries) > 0 {
		maxHeat = entries[0].Stat.Heat()
	}
	misplaced := m.misplacedFrom(entries, maxHeat)

	current := make(map[core.BlockID]string, len(misplaced))
	for _, mb := range misplaced {
		current[mb.Block] = mb.Kind
	}
	m.heat.mu.Lock()
	var fresh []rpc.MisplacedBlock
	for _, mb := range misplaced {
		if m.heat.flagged[mb.Block] != mb.Kind {
			m.heat.flagged[mb.Block] = mb.Kind
			fresh = append(fresh, mb)
		}
	}
	for id := range m.heat.flagged {
		if _, still := current[id]; !still {
			delete(m.heat.flagged, id)
		}
	}
	m.heat.mu.Unlock()

	for _, mb := range fresh {
		attrs := []string{
			"block", formatBlockID(mb.Block),
			"path", mb.Path,
			"kind", mb.Kind,
			"heat", fmt.Sprintf("%.2f", mb.Heat),
			"score", fmt.Sprintf("%.2f", mb.Score),
			"tiers", formatTierVector(mb.Tiers),
			"best_tier", mb.BestTier.String(),
		}
		m.journal.PublishTraced(events.Warn, evHeatMisplaced, mb.DecisionTraceID,
			"block tier placement contradicts its access heat", attrs...)
	}
}

// formatTierVector renders a replica-count-per-tier vector compactly,
// e.g. "HDD:2" or "MEMORY:1,HDD:2".
func formatTierVector(tiers [core.NumTiers]int) string {
	var parts []string
	for t, n := range tiers {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", core.StorageTier(t), n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// GetHeat serves the cluster heat map and tier-fitness report.
// Untraced: pollers (octopus-cli heat, /debug/heat) would churn the
// trace store.
func (s *Service) GetHeat(args *rpc.GetHeatArgs, reply *rpc.GetHeatReply) (err error) {
	defer s.m.trackOpUntraced("getHeat", args.ReqID)(&err)
	reply.Report = s.m.heatReport(args.Top, args.File, args.Misplaced)
	return nil
}
