package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/master"
	"repro/internal/rpc"
	"repro/internal/xfer"
)

// layerDef is one per-layer metric, which direction is better, and
// the end-to-end metric (with the workload) it should move.
type layerDef struct {
	name, unit, better, moves string
}

var (
	masterOps = []string{"create", "rename", "delete", "getBlockLocations", "addBlock"}
	applyOps  = []string{"create", "rename", "delete", "getFileInfo", "list"}
	xferOps   = []string{"read", "write", "replicate"}
	tiers     = []string{"memory", "ssd", "hdd"}
)

// catalogue lists every per-layer metric a traced run emits, in
// report order. Aliases in parentheses are the namespace names of the
// read_* and write_* metrics (lookup and mutate latency).
func catalogue() []layerDef {
	var out []layerDef
	add := func(unit, moves string, names ...string) {
		for _, n := range names {
			out = append(out, layerDef{n, unit, betterOf(n), moves})
		}
	}
	add("us", "write_p50_ms on stream", "client.create_us.p50")
	add("us", "write_p90_ms on stream", "client.close_us.p50", "client.close_us.p99")
	add("us", "read_p50_ms on tiered", "client.open_us.p50", "client.open_us.p99")
	add("us/MB", "ops_per_s (io_MBps) on stream", "client.read_us_per_MB")
	add("count", "failed ops and the p90 metrics", "client.block_retries", "client.read_failovers", "client.write_window_stalls")

	add("us", "read_p90_ms (lookup_p90_us) on namespace", "master.queue_us.p50", "master.queue_us.p99")
	for _, op := range masterOps {
		add("us", "write_p50_ms (mutate_p50_us) on namespace, write_p50_ms on tiered", "master.other_us."+op+".p50")
	}
	add("count", "read_p50_ms and ops_per_s on tiered", "master.mover.scheduled", "master.mover.promoted",
		"master.mover.demoted", "master.mover.expired")
	add("MB", "read_p50_ms and ops_per_s on tiered", "master.mover.moved_MB")
	for _, r := range []string{"cooldown", "concurrency", "budget", "no_target", "unhealthy"} {
		add("count", "read_p50_ms and ops_per_s on tiered", "master.mover.skipped."+r)
	}
	add("ratio", "read_p50_ms and ops_per_s on tiered", "master.mover.completed_ratio")

	add("us", "write_p90_ms (mutate_p90_us) on namespace", "namespace.lock_wait_us.p50", "namespace.lock_wait_us.p99")
	for _, op := range applyOps {
		add("us", "read_p50_ms (lookup_p50_us) and write_p50_ms (mutate_p50_us) on namespace", "namespace.apply_us."+op+".p50")
	}
	add("us", "write_p50_ms (mutate_p50_us) on namespace", "namespace.append_us.p50", "namespace.fsync_us.p50")
	add("flag", "write_p50_ms (mutate_p50_us) on namespace", "namespace.edit_sync")
	add("count", "write_p50_ms (mutate_p50_us) on namespace", "namespace.editlog_batch_records.mean")

	add("count", "write_p50_ms (mutate_p50_us) on namespace", "heat.tracked_files", "heat.tracked_blocks")
	add("ratio", "read_p50_ms on tiered", "heat.top5_accuracy")

	for q := 1; q <= 4; q++ {
		for _, t := range tiers {
			add("ratio", "read_p50_ms and ops_per_s on tiered", fmt.Sprintf("policy.read_share.q%d.%s", q, t))
		}
	}
	for _, t := range tiers {
		add("ratio", "read_p50_ms and ops_per_s on tiered", "policy.read_share."+t)
	}
	for _, t := range tiers {
		add("ratio", "read_p50_ms and ops_per_s on tiered", "policy.write_share."+t)
	}

	add("us", "write_p50_ms and read_p50_ms on stream", "rpc.dial_us.p50", "rpc.dial_us.p99")
	add("ratio", "write_p50_ms and read_p50_ms on stream", "rpc.pool_hit_ratio")
	add("us", "read_p50_ms on stream", "rpc.header_us.p50")
	add("count", "failed ops", "rpc.dial_failures")

	for _, op := range xferOps {
		add("us", "ops_per_s (io_MBps) on stream", "worker.net_us."+op+".p50", "worker.net_us."+op+".p99")
	}
	add("us", "write_p50_ms on stream", "worker.forward_us.p50")
	add("us", "write_p90_ms on stream", "worker.ack_wait_us.p50", "worker.ack_wait_us.p99")

	for _, t := range tiers {
		for _, op := range []string{"read", "write"} {
			add("us", "ops_per_s (io_MBps) on stream, read_p50_ms on tiered",
				"storage.disk_us."+t+"."+op+".p50", "storage.disk_us."+t+"."+op+".p99")
		}
	}
	add("ratio", "read_p50_ms on tiered", "storage.throttle_wait_share")

	add("bytes/MB", "ops_per_s (io_MBps) on stream", "bufpool.alloc_bytes_per_MB")
	add("ratio", "ops_per_s (io_MBps) on stream", "runtime.gc_cpu_fraction")

	add("count", "completeness of the master.* and namespace.* samples", "audit.missed", "audit.dropped")
	add("count", "completeness of the rpc.*, worker.*, storage.* and policy.* samples", "xfer.missed", "xfer.dropped")

	add("1/s", "tracing overhead: compare with ops_per_s of the untraced runs", "traced.ops_per_s")
	add("ms", "tracing overhead: compare with read_p50_ms of the untraced runs", "traced.read_p50_ms")
	add("ms", "tracing overhead: compare with write_p50_ms of the untraced runs", "traced.write_p50_ms")
	return out
}

// betterOf says which direction of a layer metric is better: the
// mover reacting, accurate heat, reads and placements on the faster
// tiers, pooled connections, batched edit-log appends and traced
// throughput are better higher; costs, waits and losses lower.
func betterOf(name string) string {
	switch {
	case strings.HasPrefix(name, "policy.") && !strings.HasSuffix(name, ".hdd"),
		strings.HasPrefix(name, "master.mover.") && !strings.Contains(name, "skipped") && !strings.HasSuffix(name, "expired"):
		return "higher"
	}
	switch name {
	case "namespace.edit_sync", "namespace.editlog_batch_records.mean", "heat.top5_accuracy",
		"rpc.pool_hit_ratio", "traced.ops_per_s":
		return "higher"
	}
	return "lower"
}

// drainEvery paces the probe's cursor reads: each ring holds 4096
// entries behind a 1024-entry backlog, which the workloads fill in
// well over 20ms.
const drainEvery = 20 * time.Millisecond

// probe drains the audit log and every flight recorder by cursor
// while a traced run is live, and snapshots the counters the program
// keeps at its start, so the per-layer metrics cover the measured
// phase only.
type probe struct {
	w    workload
	stop chan struct{}
	done chan struct{}

	auditCur    uint64
	entries     []audit.Entry
	auditMissed uint64
	logs        []*xfer.Log
	client      []bool // logs[i] belongs to a client
	curs        []uint64
	recs        []xfer.Record
	clientRecs  []xfer.Record
	xferMissed  uint64

	auditDropped0, xferDropped0 uint64
	pool0                       rpc.PoolStats
	conn0                       rpc.ConnStats
	mover0                      rpc.MoverCounters
	batchSum0, batchN0          float64
	gc0, cpu0                   float64
	stats0                      []client.DataPathStats
}

func startProbe(w workload) *probe {
	p := &probe{w: w, stop: make(chan struct{}), done: make(chan struct{})}
	c := w.cluster()
	for _, fs := range w.clients() {
		p.logs = append(p.logs, fs.TransferLog())
		p.client = append(p.client, true)
		p.stats0 = append(p.stats0, fs.DataPathStats())
	}
	for _, wk := range c.Workers {
		p.logs = append(p.logs, wk.TransferLog())
		p.client = append(p.client, false)
	}
	al := c.Master.AuditLog()
	p.auditCur = al.Since(0, "", 0).Next
	p.auditDropped0 = al.Dropped()
	for _, l := range p.logs {
		p.curs = append(p.curs, l.Since(0, "", 0).Next)
		p.xferDropped0 += l.Dropped()
	}
	p.pool0 = rpc.DataPoolStats()
	p.conn0 = rpc.DataConnStats()
	if st, err := w.clients()[0].Mover(); err == nil {
		p.mover0 = st.Counters
	}
	p.batchSum0, p.batchN0 = editBatch(c.Master)
	p.gc0, p.cpu0 = gcCPU()
	go p.loop()
	return p
}

func (p *probe) loop() {
	defer close(p.done)
	t := time.NewTicker(drainEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			p.drain()
			return
		case <-t.C:
			p.drain()
		}
	}
}

func (p *probe) drain() {
	page := p.w.cluster().Master.AuditLog().Since(p.auditCur, "", 0)
	p.auditCur = page.Next
	p.auditMissed += page.Missed
	p.entries = append(p.entries, page.Entries...)
	for i, l := range p.logs {
		pg := l.Since(p.curs[i], "", 0)
		p.curs[i] = pg.Next
		p.xferMissed += pg.Missed
		if p.client[i] {
			p.clientRecs = append(p.clientRecs, pg.Entries...)
		} else {
			p.recs = append(p.recs, pg.Entries...)
		}
	}
}

// finish stops draining and computes every per-layer metric over the
// measured phase [t0, t0+elapsed).
func (p *probe) finish(runs []*clientRun, t0 time.Time, elapsed time.Duration) (map[string]metric, []string) {
	close(p.stop)
	<-p.done
	c := p.w.cluster()
	fs := p.w.clients()[0]
	v := map[string]float64{}

	// client: spans recorded around every call into the client.
	spans := map[string][]float64{}
	var readBytes, movedBytes int64
	for _, r := range runs {
		for _, s := range r.tr.spans {
			spans[s.name] = append(spans[s.name], float64(s.dur.Nanoseconds())/1e3)
		}
		readBytes += r.readBytes
		movedBytes += r.readBytes + r.wrBytes
	}
	q := func(s []float64, at float64) float64 {
		sort.Float64s(s)
		return quantile(s, at)
	}
	v["client.create_us.p50"] = q(spans["client.create"], 0.5)
	v["client.close_us.p50"] = q(spans["client.close"], 0.5)
	v["client.close_us.p99"] = q(spans["client.close"], 0.99)
	v["client.open_us.p50"] = q(spans["client.open"], 0.5)
	v["client.open_us.p99"] = q(spans["client.open"], 0.99)
	if readBytes > 0 {
		v["client.read_us_per_MB"] = sum(spans["client.read"]) / (float64(readBytes) / (1 << 20))
	}
	for i, f := range p.w.clients() {
		st := f.DataPathStats()
		v["client.block_retries"] += st.Retries - p.stats0[i].Retries
		v["client.read_failovers"] += st.Failovers - p.stats0[i].Failovers
		v["client.write_window_stalls"] += st.WriteStalls - p.stats0[i].WriteStalls
	}

	// master and namespace: the audit log's per-op phases.
	phase := map[string][]float64{}
	editSync := 0.0
	for _, e := range p.entries {
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		phase["queue"] = append(phase["queue"], us(e.QueueNs))
		phase["lock"] = append(phase["lock"], us(e.LockWaitNs))
		phase["apply."+e.Op] = append(phase["apply."+e.Op], us(e.ApplyNs))
		phase["other."+e.Op] = append(phase["other."+e.Op], us(e.TotalNs-e.LockWaitNs-e.ApplyNs-e.AppendNs-e.FsyncNs))
		if e.AppendNs > 0 {
			phase["append"] = append(phase["append"], us(e.AppendNs))
		}
		if e.FsyncNs > 0 {
			phase["fsync"] = append(phase["fsync"], us(e.FsyncNs))
			editSync = 1
		}
	}
	v["master.queue_us.p50"] = q(phase["queue"], 0.5)
	v["master.queue_us.p99"] = q(phase["queue"], 0.99)
	for _, op := range masterOps {
		v["master.other_us."+op+".p50"] = q(phase["other."+op], 0.5)
	}
	v["namespace.lock_wait_us.p50"] = q(phase["lock"], 0.5)
	v["namespace.lock_wait_us.p99"] = q(phase["lock"], 0.99)
	for _, op := range applyOps {
		v["namespace.apply_us."+op+".p50"] = q(phase["apply."+op], 0.5)
	}
	v["namespace.append_us.p50"] = q(phase["append"], 0.5)
	v["namespace.fsync_us.p50"] = q(phase["fsync"], 0.5)
	v["namespace.edit_sync"] = editSync
	if s, n := editBatch(c.Master); n > p.batchN0 {
		v["namespace.editlog_batch_records.mean"] = (s - p.batchSum0) / (n - p.batchN0)
	}

	// mover and heat, from the master's own reports.
	if st, err := fs.Mover(); err == nil {
		m, m0 := st.Counters, p.mover0
		v["master.mover.scheduled"] = float64(m.Scheduled - m0.Scheduled)
		v["master.mover.promoted"] = float64(m.Promoted - m0.Promoted)
		v["master.mover.demoted"] = float64(m.Demoted - m0.Demoted)
		v["master.mover.expired"] = float64(m.Expired - m0.Expired)
		v["master.mover.moved_MB"] = float64(m.MovedBytes-m0.MovedBytes) / (1 << 20)
		v["master.mover.skipped.cooldown"] = float64(m.SkippedCooldown - m0.SkippedCooldown)
		v["master.mover.skipped.concurrency"] = float64(m.SkippedConcurrency - m0.SkippedConcurrency)
		v["master.mover.skipped.budget"] = float64(m.SkippedBudget - m0.SkippedBudget)
		v["master.mover.skipped.no_target"] = float64(m.SkippedNoTarget - m0.SkippedNoTarget)
		v["master.mover.skipped.unhealthy"] = float64(m.SkippedUnhealthy - m0.SkippedUnhealthy)
		if sched := v["master.mover.scheduled"]; sched > 0 {
			v["master.mover.completed_ratio"] = (v["master.mover.promoted"] + v["master.mover.demoted"]) / sched
		}
	}
	if rep, err := fs.Heat(5, "", false); err == nil {
		v["heat.tracked_files"] = float64(rep.Aggregate.TrackedFiles)
		v["heat.tracked_blocks"] = float64(rep.Aggregate.TrackedBlocks)
		if truth := p.w.hotPaths(5); truth != nil {
			hit := 0
			for _, f := range rep.Files {
				for _, t := range truth {
					if f.Path == t {
						hit++
					}
				}
			}
			v["heat.top5_accuracy"] = float64(hit) / float64(len(truth))
		}
	}

	// policy: which tier served each block a client read, by quarter
	// of the run, and where unspecified-tier replicas were placed.
	clientReads := map[string]bool{}
	for _, r := range p.clientRecs {
		if r.Op == "read" {
			clientReads[r.TraceID] = true
		}
	}
	var served [4]map[string]float64
	var servedAll [4]float64
	for i := range served {
		served[i] = map[string]float64{}
	}
	for _, r := range p.recs {
		if r.Op != "read" || !clientReads[r.TraceID] || r.Result != "ok" {
			continue
		}
		qi := int(4 * time.Unix(0, r.Time).Sub(t0) / elapsed)
		qi = min(max(qi, 0), 3)
		served[qi][strings.ToLower(r.Tier)]++
		servedAll[qi]++
	}
	var total float64
	all := map[string]float64{}
	for qi := range served {
		for _, t := range tiers {
			if servedAll[qi] > 0 {
				v[fmt.Sprintf("policy.read_share.q%d.%s", qi+1, t)] = served[qi][t] / servedAll[qi]
			}
			all[t] += served[qi][t]
		}
		total += servedAll[qi]
	}
	placed, placedAll := map[string]float64{}, 0.0
	for _, r := range runs {
		for t, n := range r.placed {
			placed[t] += float64(n)
			placedAll += float64(n)
		}
	}
	for _, t := range tiers {
		if total > 0 {
			v["policy.read_share."+t] = all[t] / total
		}
		if placedAll > 0 {
			v["policy.write_share."+t] = placed[t] / placedAll
		}
	}

	// rpc, worker, storage and bufpool: flight-recorder phases from
	// the clients' and the workers' side.
	ph := map[string][]float64{}
	var throttle, readWall, alloc float64
	addPh := func(k string, ns int64) {
		if ns > 0 {
			ph[k] = append(ph[k], float64(ns)/1e3)
		}
	}
	for _, recs := range [][]xfer.Record{p.clientRecs, p.recs} {
		for _, r := range recs {
			addPh("dial", r.DialNs)
			addPh("header", r.HeaderEncodeNs+r.HeaderDecodeNs)
			alloc += float64(r.AllocBytes)
		}
	}
	for _, r := range p.recs {
		addPh("net."+r.Op, r.NetNs)
		addPh("disk."+strings.ToLower(r.Tier)+"."+r.Op, r.DiskNs)
		if r.Op == "write" {
			addPh("forward", r.ForwardNs)
			addPh("ack", r.AckWaitNs)
		}
		if r.Op == "read" {
			throttle += float64(r.ThrottleWaitNs)
			readWall += float64(r.TotalNs)
		}
	}
	v["rpc.dial_us.p50"] = q(ph["dial"], 0.5)
	v["rpc.dial_us.p99"] = q(ph["dial"], 0.99)
	v["rpc.header_us.p50"] = q(ph["header"], 0.5)
	pool := rpc.DataPoolStats()
	if n := (pool.Hits - p.pool0.Hits) + (pool.Misses - p.pool0.Misses); n > 0 {
		v["rpc.pool_hit_ratio"] = float64(pool.Hits-p.pool0.Hits) / float64(n)
	}
	v["rpc.dial_failures"] = float64(rpc.DataConnStats().DialFailures - p.conn0.DialFailures)
	for _, op := range xferOps {
		v["worker.net_us."+op+".p50"] = q(ph["net."+op], 0.5)
		v["worker.net_us."+op+".p99"] = q(ph["net."+op], 0.99)
	}
	v["worker.forward_us.p50"] = q(ph["forward"], 0.5)
	v["worker.ack_wait_us.p50"] = q(ph["ack"], 0.5)
	v["worker.ack_wait_us.p99"] = q(ph["ack"], 0.99)
	for _, t := range tiers {
		for _, op := range []string{"read", "write"} {
			k := "disk." + t + "." + op
			v["storage.disk_us."+t+"."+op+".p50"] = q(ph[k], 0.5)
			v["storage.disk_us."+t+"."+op+".p99"] = q(ph[k], 0.99)
		}
	}
	if readWall > 0 {
		v["storage.throttle_wait_share"] = throttle / readWall
	}
	if movedBytes > 0 {
		v["bufpool.alloc_bytes_per_MB"] = alloc / (float64(movedBytes) / (1 << 20))
	}
	if gc, cpu := gcCPU(); cpu > p.cpu0 {
		v["runtime.gc_cpu_fraction"] = (gc - p.gc0) / (cpu - p.cpu0)
	}

	al := c.Master.AuditLog()
	v["audit.missed"] = float64(p.auditMissed)
	v["audit.dropped"] = float64(al.Dropped() - p.auditDropped0)
	v["xfer.missed"] = float64(p.xferMissed)
	var dropped uint64
	for _, l := range p.logs {
		dropped += l.Dropped()
	}
	v["xfer.dropped"] = float64(dropped - p.xferDropped0)

	out := map[string]metric{}
	report := []string{fmt.Sprintf("traced run: %d audit entries, %d client and %d worker transfer records, %d spans",
		len(p.entries), len(p.clientRecs), len(p.recs), len(spans))}
	for _, d := range catalogue() {
		if strings.HasPrefix(d.name, "traced.") {
			continue // filled in by run from the end-to-end figures
		}
		out[d.name] = metric{v[d.name], d.unit}
		report = append(report, fmt.Sprintf("layer %-44s %14.4f %-8s moves %s", d.name, v[d.name], d.unit, d.moves))
	}
	return out, report
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, x := range vs {
		t += x
	}
	return t
}

// editBatch reads the master's edit-log batch-size histogram.
func editBatch(m *master.Master) (sum, count float64) {
	h := m.Metrics().Histogram("octopus_master_editlog_batch_records", "", nil, nil)
	return h.Sum(), float64(h.Count())
}

// gcCPU returns the process's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}
