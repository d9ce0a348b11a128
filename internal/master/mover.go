package master

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/blockmgmt"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/policy"
	"repro/internal/ring"
	"repro/internal/rpc"
)

// This file implements the background tier mover: the monitor-loop
// pass that closes the loop the heat plane opened. Where scanMisplaced
// only *reports* blocks whose replica tier vectors contradict their
// access heat, the mover *acts*: it promotes a hot-on-cold block by
// replicating it onto a MEMORY/SSD medium chosen by the placement
// policy and then retiring the coldest source replica once the new
// copy is confirmed, and demotes cold-on-premium blocks the inverse
// way (the automated tier management of Herodotou & Kakoulli's
// follow-up work). A move is copy-then-delete, never delete-then-copy:
// the per-tier replica count is conserved and the replication monitor
// never sees the block as unhealthy mid-move.
//
// Moves are governed so the mover cannot starve foreground traffic or
// thrash on flapping heat: a pass interval, a cap on concurrent
// in-flight moves, a bytes/sec replication budget (deficit-counter
// style, so blocks larger than one second of budget still move, just
// less often), and a per-block cooldown armed after every completed or
// expired move.

const (
	defaultMoverInterval    = 2 * time.Second
	defaultMoverMaxMoves    = 4
	defaultMoverBytesPerSec = int64(64 << 20)
	defaultMoverCooldown    = 30 * time.Second

	// moverRecentCap bounds the ring of finished moves kept for the
	// status document.
	moverRecentCap = 64

	// moverConfirmTicks bounds how many mover intervals a scheduled
	// replicate may stay unconfirmed before the move is abandoned (the
	// target worker may have died or dropped the command).
	moverConfirmTicks = 20
)

// mover holds the tier mover's state. All mutation happens on the
// master's monitor goroutine; the mutex guards the status RPC readers
// and the replication monitor's in-flight check.
type mover struct {
	interval     time.Duration
	maxMoves     int
	bytesPerSec  int64
	cooldownSpan time.Duration

	mu       sync.Mutex
	inflight map[core.BlockID]*rpc.MoveRecord
	cooldown map[core.BlockID]time.Time
	recent   *ring.Buffer[rpc.MoveRecord] // finished moves, oldest first
	counters rpc.MoverCounters
	// budget is the remaining bytes allowance; scheduling charges the
	// full block size (possibly driving it negative) and refills at
	// bytesPerSec, capped at one second of burst.
	budget     float64
	lastRefill time.Time
}

func newMover(cfg Config) *mover {
	mv := &mover{
		interval:     cfg.MoverInterval,
		maxMoves:     cfg.MoverMaxMoves,
		bytesPerSec:  cfg.MoverBytesPerSec,
		cooldownSpan: cfg.MoverCooldown,
		inflight:     make(map[core.BlockID]*rpc.MoveRecord),
		cooldown:     make(map[core.BlockID]time.Time),
		recent:       ring.NewBuffer[rpc.MoveRecord](moverRecentCap),
	}
	if mv.interval == 0 {
		mv.interval = defaultMoverInterval
	}
	if mv.maxMoves <= 0 {
		mv.maxMoves = defaultMoverMaxMoves
	}
	if mv.bytesPerSec == 0 {
		mv.bytesPerSec = defaultMoverBytesPerSec
	}
	if mv.cooldownSpan == 0 {
		mv.cooldownSpan = defaultMoverCooldown
	}
	return mv
}

// enabled reports whether the mover runs at all (negative
// MoverInterval disables it).
func (mv *mover) enabled() bool { return mv.interval > 0 }

// limited reports whether the bytes/sec budget applies (negative
// MoverBytesPerSec removes it).
func (mv *mover) limited() bool { return mv.bytesPerSec > 0 }

func (mv *mover) pushRecentLocked(rec rpc.MoveRecord) { mv.recent.Push(rec) }

func (mv *mover) refillLocked(now time.Time) {
	if !mv.limited() {
		return
	}
	if mv.lastRefill.IsZero() {
		mv.budget = float64(mv.bytesPerSec)
	} else {
		mv.budget += now.Sub(mv.lastRefill).Seconds() * float64(mv.bytesPerSec)
		if mv.budget > float64(mv.bytesPerSec) {
			mv.budget = float64(mv.bytesPerSec)
		}
	}
	mv.lastRefill = now
}

// moverBusy reports whether the mover has an in-flight move for the
// block. The replication monitor skips such blocks: the transient
// extra replica mid-move must not be treated as excess, and the
// mover's own retire step finishes the transition.
func (m *Master) moverBusy(id core.BlockID) bool {
	mv := m.mover
	mv.mu.Lock()
	_, busy := mv.inflight[id]
	mv.mu.Unlock()
	return busy
}

// moverPass runs one mover iteration: finish or expire in-flight
// moves, then convert fresh tier-fitness findings into new moves
// within the governors. Called from the monitor goroutine at
// MoverInterval cadence.
func (m *Master) moverPass() {
	mv := m.mover
	if !mv.enabled() {
		return
	}
	mv.mu.Lock()
	defer mv.mu.Unlock()
	now := time.Now()
	mv.refillLocked(now)
	m.moverFinishLocked(now)
	m.moverScheduleLocked(now)
	for id, until := range mv.cooldown {
		if now.After(until) {
			delete(mv.cooldown, id)
		}
	}
}

// moverFinishLocked retires the source replica of every in-flight move
// whose new replica has been confirmed (via BlockReceived or a block
// report), and abandons moves that outlived the confirmation deadline.
func (m *Master) moverFinishLocked(now time.Time) {
	mv := m.mover
	deadline := time.Duration(moverConfirmTicks) * mv.interval
	for id, rec := range mv.inflight {
		confirmed := false
		for _, r := range m.blocks.Replicas(id) {
			if r.Storage == rec.ToStorage {
				confirmed = true
				break
			}
		}
		if confirmed {
			m.moverCompleteLocked(rec, now)
			delete(mv.inflight, id)
			continue
		}
		if now.Sub(time.Unix(0, rec.StartedNs)) > deadline {
			rec.Outcome = rpc.MoveExpired
			rec.FinishedNs = now.UnixNano()
			mv.counters.Expired++
			mv.cooldown[id] = now.Add(mv.cooldownSpan)
			mv.pushRecentLocked(*rec)
			delete(mv.inflight, id)
			m.journal.PublishTraced(events.Warn, evBlockMoveExpired, rec.TraceID,
				"tier move expired before the new replica was confirmed",
				"block", formatBlockID(id),
				"path", rec.Path,
				"kind", rec.Kind,
				"to", string(rec.ToStorage))
		}
	}
}

// moverCompleteLocked finishes one confirmed move: retire the source
// replica (shifting one pinned-tier entry of the block's expected
// vector when the source was pin-covered, so the per-tier counts stay
// conserved and the block never goes under-replicated against its own
// expectation), journal the block_moved event, and arm the cooldown.
func (m *Master) moverCompleteLocked(rec *rpc.MoveRecord, now time.Time) {
	mv := m.mover
	if info, ok := m.blocks.Info(rec.Block); ok {
		var actual [core.NumTiers]int
		victimLive := false
		for _, r := range info.Replicas {
			actual[r.Tier]++
			if r.Storage == rec.FromStorage {
				victimLive = true
			}
		}
		// The source may have vanished mid-move (worker death); then
		// there is nothing to retire and the replication monitor takes
		// over with the new replica as a healthy source.
		if victimLive {
			if pinned := info.Expected.Tier(rec.FromTier); actual[rec.FromTier] <= pinned {
				shifted := info.Expected.
					WithTier(rec.FromTier, pinned-1).
					WithTier(rec.ToTier, info.Expected.Tier(rec.ToTier)+1)
				m.blocks.SetExpected(rec.Block, shifted)
			}
			m.blocks.RemoveReplica(rec.Block, rec.FromStorage)
			m.enqueue(rec.FromWorker, rpc.Command{
				Kind: rpc.CmdDelete, Block: info.Block, Target: rec.FromStorage,
			})
		}
	}
	var after [core.NumTiers]int
	for _, r := range m.blocks.Replicas(rec.Block) {
		after[r.Tier]++
	}
	rec.AfterTiers = after
	rec.Outcome = rpc.MoveDone
	rec.FinishedNs = now.UnixNano()
	if rec.Kind == rpc.MovePromote {
		mv.counters.Promoted++
	} else {
		mv.counters.Demoted++
	}
	mv.counters.MovedBytes += rec.Bytes
	mv.cooldown[rec.Block] = now.Add(mv.cooldownSpan)
	mv.pushRecentLocked(*rec)
	m.cfg.Logger.Info("tier move completed",
		"block", rec.Block, "kind", rec.Kind,
		"from", rec.FromTier.String(), "to", rec.ToTier.String())
	m.journal.PublishTraced(events.Info, evBlockMoved, rec.TraceID,
		"replica moved between tiers by the heat-driven mover",
		"block", formatBlockID(rec.Block),
		"path", rec.Path,
		"kind", rec.Kind,
		"heat", fmt.Sprintf("%.2f", rec.Heat),
		"from", rec.FromTier.String(),
		"to", rec.ToTier.String(),
		"before", formatTierVector(rec.BeforeTiers),
		"after", formatTierVector(rec.AfterTiers),
		"bytes", strconv.FormatInt(rec.Bytes, 10))
}

// moverScheduleLocked turns the current tier-fitness findings into new
// moves, best-scored first, within the concurrency and bandwidth
// governors.
func (m *Master) moverScheduleLocked(now time.Time) {
	mv := m.mover
	snap := m.snapshot()
	if len(snap.Media) == 0 {
		return
	}
	entries := m.heat.blocks.Snapshot(now.UnixNano())
	if len(entries) == 0 {
		return
	}
	findings := m.misplacedFrom(entries, entries[0].Stat.Heat())
	for _, f := range findings {
		if _, busy := mv.inflight[f.Block]; busy {
			continue
		}
		if until, cool := mv.cooldown[f.Block]; cool && now.Before(until) {
			mv.counters.SkippedCooldown++
			continue
		}
		if len(mv.inflight) >= mv.maxMoves {
			mv.counters.SkippedConcurrency++
			continue
		}
		info, ok := m.blocks.Info(f.Block)
		if !ok || info.UnderConstruction {
			mv.counters.SkippedUnhealthy++
			continue
		}
		// Only steady, fully healthy blocks move: mid-repair blocks
		// belong to the replication monitor.
		if st, ok := m.blocks.State(f.Block); !ok || !st.Satisfied() {
			mv.counters.SkippedUnhealthy++
			continue
		}
		if mv.limited() && mv.budget <= 0 {
			mv.counters.SkippedBudget++
			continue
		}
		if m.startMoveLocked(snap, f, info, now) {
			mv.counters.Scheduled++
			if mv.limited() {
				mv.budget -= float64(info.Block.NumBytes)
			}
		}
	}
}

// startMoveLocked schedules one move: pick the replica to retire, ask
// the placement policy for a target medium on the destination tiers
// (with the surviving replicas as context), enqueue the replicate
// command, and record the decision in the explainability store.
func (m *Master) startMoveLocked(snap *policy.Snapshot, f rpc.MisplacedBlock, info blockmgmt.BlockInfo, now time.Time) bool {
	mv := m.mover
	promote := f.Kind == rpc.MisplacedHotOnCold

	// Promotion retires the coldest source replica, demotion the most
	// premium one.
	var victim blockmgmt.Replica
	found := false
	for _, r := range info.Replicas {
		if !found ||
			(promote && tierRank(r.Tier) > tierRank(victim.Tier)) ||
			(!promote && tierRank(r.Tier) < tierRank(victim.Tier)) {
			victim, found = r, true
		}
	}
	if !found {
		mv.counters.SkippedUnhealthy++
		return false
	}

	kind := rpc.MovePromote
	targetTiers := []core.StorageTier{core.TierMemory, core.TierSSD}
	if !promote {
		kind = rpc.MoveDemote
		targetTiers = []core.StorageTier{core.TierHDD, core.TierRemote}
	}

	existing := m.mediaFor(info.Replicas)
	if len(existing) == 0 {
		mv.counters.SkippedUnhealthy++
		return false
	}
	occupied := make(map[core.StorageID]bool, len(info.Replicas))
	for _, r := range info.Replicas {
		occupied[r.Storage] = true
	}

	var target policy.Media
	var decisions []policy.ReplicaDecision
	chosen := false
	explainer, canExplain := m.cfg.Placement.(policy.ExplainingPolicy)
	for _, tier := range targetTiers {
		req := policy.PlacementRequest{
			Snapshot:  snap,
			RepVector: core.ReplicationVector(0).WithTier(tier, 1),
			BlockSize: info.Block.NumBytes,
			Existing:  existing,
		}
		var tgts []policy.Media
		var perr error
		m.withRand(func(rng *rand.Rand) {
			req.Rand = rng
			if canExplain {
				tgts, decisions, perr = explainer.PlaceReplicasExplained(req)
			} else {
				tgts, perr = m.cfg.Placement.PlaceReplicas(req)
			}
		})
		if perr != nil || len(tgts) == 0 || occupied[tgts[0].ID] {
			continue
		}
		target = tgts[0]
		chosen = true
		break
	}
	if !chosen {
		mv.counters.SkippedNoTarget++
		return false
	}

	// Order the copy sources once with the retrieval policy, like
	// re-replication: the target worker copies from the best replica.
	var sources []core.BlockLocation
	var ordered []policy.Media
	m.withRand(func(rng *rand.Rand) {
		ordered = m.cfg.Retrieval.Order(policy.RetrievalRequest{
			Snapshot: snap,
			Replicas: existing,
			Rand:     rng,
		})
	})
	for _, src := range ordered {
		if loc, ok := m.locationFor(blockmgmt.Replica{Worker: src.Worker, Storage: src.ID, Tier: src.Tier}); ok {
			sources = append(sources, loc)
		}
	}
	if len(sources) == 0 {
		mv.counters.SkippedUnhealthy++
		return false
	}

	rec := &rpc.MoveRecord{
		Block:       f.Block,
		Path:        f.Path,
		Kind:        kind,
		Heat:        f.Heat,
		Bytes:       info.Block.NumBytes,
		FromTier:    victim.Tier,
		FromStorage: victim.Storage,
		FromWorker:  victim.Worker,
		ToTier:      target.Tier,
		ToStorage:   target.ID,
		ToWorker:    target.Worker,
		BeforeTiers: f.Tiers,
		StartedNs:   now.UnixNano(),
		Outcome:     rpc.MoveInFlight,
		TraceID:     rpc.NewRequestID(),
	}
	m.enqueue(target.Worker, rpc.Command{
		Kind:    rpc.CmdReplicate,
		Block:   info.Block,
		Target:  target.ID,
		Sources: sources,
	})
	mv.inflight[f.Block] = rec
	m.recordMove(rec, decisions)
	m.cfg.Logger.Info("tier move scheduled",
		"block", f.Block, "kind", kind, "path", f.Path,
		"from", string(victim.Storage), "to", string(target.ID))
	return true
}

// recordMove overwrites the block's explainability record with the
// mover's decision, so octopus-cli explain shows why the block last
// moved rather than where its write originally landed.
func (m *Master) recordMove(rec *rpc.MoveRecord, decisions []policy.ReplicaDecision) {
	m.retainExplanation(rpc.BlockExplanation{
		Block:    rec.Block,
		TimeNs:   rec.StartedNs,
		TraceID:  rec.TraceID,
		Origin:   rec.Kind,
		Heat:     rec.Heat,
		Replicas: wireDecisions(decisions),
	})
}

// moverStatus assembles the mover observability document served by
// Master.GetMover and /debug/mover.
func (m *Master) moverStatus() rpc.MoverStatus {
	mv := m.mover
	st := rpc.MoverStatus{
		Enabled:       mv.enabled(),
		IntervalNs:    int64(mv.interval),
		MaxConcurrent: mv.maxMoves,
		BytesPerSec:   mv.bytesPerSec,
		CooldownNs:    int64(mv.cooldownSpan),
	}
	mv.mu.Lock()
	defer mv.mu.Unlock()
	for _, rec := range mv.inflight {
		st.InFlight = append(st.InFlight, *rec)
	}
	sort.Slice(st.InFlight, func(i, j int) bool { return st.InFlight[i].StartedNs < st.InFlight[j].StartedNs })
	for i := mv.recent.Len() - 1; i >= 0; i-- {
		st.Recent = append(st.Recent, mv.recent.At(i))
	}
	st.Counters = mv.counters
	return st
}

// GetMover serves the tier mover's status. Untraced: pollers
// (octopus-cli mover, /debug/mover) would churn the trace store.
func (s *Service) GetMover(args *rpc.GetMoverArgs, reply *rpc.GetMoverReply) (err error) {
	defer s.m.trackOpUntraced("getMover", args.ReqID)(&err)
	reply.Status = s.m.moverStatus()
	return nil
}
