package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/integration"
)

// sizes shapes one workload; defaultSizes holds the benchmark's own
// and the smoke test shrinks them. Zero fields do not apply to the
// workload.
type sizes struct {
	Clients int `json:"clients"`
	Setups  int `json:"setups"` // set-ups per run; setup_s is their median

	// stream and tiered
	FileBytes  int64 `json:"file_bytes,omitempty"`
	BlockBytes int64 `json:"block_bytes,omitempty"`
	Replicas   int   `json:"replicas,omitempty"` // replicas per block

	// stream
	Window        int `json:"window,omitempty"` // live files per client
	ReadsPerWrite int `json:"reads_per_write,omitempty"`

	// namespace
	Files int `json:"files,omitempty"` // resident namespace
	Dirs  int `json:"dirs,omitempty"`

	// tiered, and MemBytes for stream
	Slots         int     `json:"slots,omitempty"` // working-set files
	ZipfS         float64 `json:"zipf_s,omitempty"`
	Rotations     int     `json:"rotations,omitempty"` // hot-set rotations per run
	WriteEvery    int     `json:"write_every,omitempty"`
	ThrottleScale float64 `json:"throttle_scale,omitempty"`
	MemBytes      int64   `json:"mem_bytes_per_worker,omitempty"`
	SSDBytes      int64   `json:"ssd_bytes_per_worker,omitempty"`
	HDDBytes      int64   `json:"hdd_bytes_per_worker,omitempty"`

	// corruptExpected makes every read-back compare against a wrong
	// expected value, so tests can see the correctness check fire.
	corruptExpected bool
}

// maxClients caps the closed-loop clients at 2, the nproc of the 2-vCPU
// VM the workloads were sized on, so the load shape is the same on
// larger machines; run also caps them at nproc.
const maxClients = 2

var defaultSizes = map[string]sizes{
	"stream": {
		Clients: maxClients, Setups: 5,
		FileBytes: 4 << 20, BlockBytes: 1 << 20, Replicas: 2,
		Window: 4, ReadsPerWrite: 3, MemBytes: 64 << 20,
	},
	"namespace": {
		Clients: maxClients, Setups: 2,
		Files: 2 * 16384, Dirs: 256,
	},
	"tiered": {
		Clients: maxClients, Setups: 3,
		FileBytes: 128 << 10, BlockBytes: 128 << 10, Replicas: 2,
		Slots: 64, ZipfS: 1.2, Rotations: 3, WriteEvery: 5,
		ThrottleScale: 0.05,
		MemBytes:      2 << 20, SSDBytes: 4 << 20, HDDBytes: 96 << 20,
	},
}

// workload is one started, preloaded workload.
type workload interface {
	cluster() *integration.Cluster
	clients() []*client.FileSystem
	// op runs one closed-loop operation (or one write plus its
	// bookkeeping) for client c.
	op(c *clientRun)
	// rotate is called at the seeded points of the run where the
	// workload may change its access pattern.
	rotate(k int)
	// check verifies the final state against the generator's model.
	check() []string
	// hotPaths returns the generator's current true k hottest paths,
	// nil when the workload has no skew.
	hotPaths(k int) []string
	close()
}

type starter func(dir string, sz sizes, seed int64) (workload, error)

var starters = map[string]starter{
	"stream":    startStream,
	"namespace": startNamespace,
	"tiered":    startTiered,
}

// Latency classes: the end-to-end read_* metrics cover the workload's
// read-class ops, write_* its write-class ops.
var (
	readKinds = map[string][]string{
		"stream": {"read"}, "tiered": {"read"}, "namespace": {"stat", "ls"},
	}
	writeKinds = map[string][]string{
		"stream": {"write"}, "tiered": {"write"}, "namespace": {"create", "rename", "delete"},
	}
)

// clientRun is one closed-loop client's measurement state. Only its
// own goroutine touches it while the run is live.
type clientRun struct {
	id        int
	rng       *rand.Rand
	tr        *tracer // nil on untraced runs
	lat       map[string][]sample
	attempted int
	failed    int
	readBytes int64
	wrBytes   int64
	failures  map[string]int
	problems  []string
	placed    map[string]int // replicas placed per tier, traced runs only
}

func newClientRun(id int, seed int64) *clientRun {
	c := &clientRun{id: id, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id)))}
	c.reset(false)
	return c
}

// reset clears the measurements, keeping the random stream and any
// failed check.
func (c *clientRun) reset(traced bool) {
	c.lat = make(map[string][]sample)
	c.attempted, c.failed = 0, 0
	c.readBytes, c.wrBytes = 0, 0
	c.failures = make(map[string]int)
	c.placed = make(map[string]int)
	c.tr = nil
	if traced {
		c.tr = &tracer{}
	}
}

// timed runs one operation of the given kind, counting it as
// attempted and, on error, as failed. It reports whether fn
// succeeded.
func (c *clientRun) timed(kind string, fn func() error) bool {
	c.attempted++
	c.tr.beginOp(kind)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	c.tr.endOp(t0, d)
	if err != nil {
		c.failed++
		c.failures[kind+": "+firstLine(err.Error())]++
		return false
	}
	c.lat[kind] = append(c.lat[kind], sample{t0.Add(d), d})
	return true
}

// sample is one completed operation: when it ended and how long it
// took.
type sample struct {
	end time.Time
	d   time.Duration
}

// problem records a failed correctness check.
func (c *clientRun) problem(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// run sets the workload up sz.Setups times (keeping the last), drives
// it as a closed loop for dur, checks its final state and assembles
// the result.
func run(name string, sz sizes, seed int64, dur time.Duration, traced bool) (*result, error) {
	start, ok := starters[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	root, err := os.MkdirTemp("", "perfbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	sz.Clients = max(1, min(sz.Clients, runtime.NumCPU()))
	var w workload
	var setups []float64
	for i := 0; i < max(sz.Setups, 1); i++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		w, err = start(dir, sz, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	runs := make([]*clientRun, len(w.clients()))
	for i := range runs {
		runs[i] = newClientRun(i, seed)
	}
	// Warm up untimed, so connection pools, caches and the heat plane
	// are past their first-use costs when the measured phase starts.
	drive(w, runs, dur/10, nil)
	for _, c := range runs {
		c.reset(traced)
	}
	var p *probe
	if traced {
		p = startProbe(w)
	}
	t0 := time.Now()
	drive(w, runs, dur, rotationTimes(sz.Rotations, seed, dur))
	elapsed := time.Since(t0)

	res := &result{
		Header:  newHeader(name, sz, seed, dur, traced),
		Correct: true,
		Metrics: make(map[string]metric),
	}
	for _, c := range runs {
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.Problems = append(res.Problems, c.problems...)
		for f, n := range c.failures {
			res.Report = append(res.Report, fmt.Sprintf("failed op client%d %s (x%d)", c.id, f, n))
		}
	}
	e2e := endToEnd(name, runs, setups, t0, elapsed)
	res.Report = append(res.Report, e2e.report...)
	if traced {
		layer, report := p.finish(runs, t0, elapsed)
		res.Report = append(res.Report, report...)
		for k, v := range layer {
			res.Metrics[k] = v
		}
		// The traced run's own end-to-end figures, to compare with
		// the untraced runs' for the tracing overhead.
		res.Metrics["traced.ops_per_s"] = e2e.metrics["ops_per_s"]
		res.Metrics["traced.read_p50_ms"] = e2e.metrics["read_p50_ms"]
		res.Metrics["traced.write_p50_ms"] = e2e.metrics["write_p50_ms"]
	} else {
		for k, v := range e2e.metrics {
			res.Metrics[k] = v
		}
	}
	res.Problems = append(res.Problems, w.check()...)
	if res.Attempted == 0 {
		res.Problems = append(res.Problems, "no operation was attempted")
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// drive runs every client as a closed loop for dur, rotating the
// workload's access pattern at the given offsets.
func drive(w workload, runs []*clientRun, dur time.Duration, rotations []time.Duration) {
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for _, c := range runs {
		wg.Add(1)
		go func(c *clientRun) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.op(c)
			}
		}(c)
	}
	for k, at := range rotations {
		time.Sleep(time.Until(t0.Add(at)))
		w.rotate(k + 1)
	}
	wg.Wait()
}

// rotationTimes places n rotation points near the boundaries of n+1
// equal spans of the run, each moved by a seeded offset between 0.3
// of a span earlier and 0.1 later, so every access pattern holds long
// enough for the mover to react.
func rotationTimes(n int, seed int64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	span := dur / time.Duration(n+1)
	var out []time.Duration
	for k := 1; k <= n; k++ {
		jitter := time.Duration((0.2 + 0.4*rng.Float64()) * float64(span))
		out = append(out, time.Duration(k)*span+jitter-span/2)
	}
	return out
}

// rateWindows splits the measured phase for ops_per_s.
const rateWindows = 10

type e2eResult struct {
	metrics map[string]metric
	report  []string
}

// endToEnd computes the end-to-end metrics and the report lines that
// give every latency quantile its sample count.
func endToEnd(name string, runs []*clientRun, setups []float64, t0 time.Time, elapsed time.Duration) e2eResult {
	lat := map[string][]float64{}
	done, bytes := 0, int64(0)
	attempted, failed := 0, 0
	for _, c := range runs {
		for k, ds := range c.lat {
			for _, d := range ds {
				lat[k] = append(lat[k], float64(d.d.Nanoseconds()))
			}
			done += len(ds)
		}
		bytes += c.readBytes + c.wrBytes
		attempted += c.attempted
		failed += c.failed
	}
	class := func(kinds []string) []float64 {
		var s []float64
		for _, k := range kinds {
			s = append(s, lat[k]...)
		}
		sort.Float64s(s)
		return s
	}
	reads, writes := class(readKinds[name]), class(writeKinds[name])
	secs := elapsed.Seconds()
	// Completed ops per second in each of rateWindows equal windows;
	// their median is robust to a short stall on a shared machine.
	rates := make([]float64, rateWindows)
	for _, c := range runs {
		for _, ds := range c.lat {
			for _, d := range ds {
				rates[min(int(rateWindows*d.end.Sub(t0)/elapsed), rateWindows-1)]++
			}
		}
	}
	for i := range rates {
		rates[i] /= secs / rateWindows
	}
	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"ops_per_s":    {median(rates), "1/s"},
		"read_p50_ms":  {quantile(reads, 0.5) / 1e6, "ms"},
		"read_p90_ms":  {quantile(reads, 0.9) / 1e6, "ms"},
		"write_p50_ms": {quantile(writes, 0.5) / 1e6, "ms"},
		"write_p90_ms": {quantile(writes, 0.9) / 1e6, "ms"},
		"peak_rss_MB":  {peakRSSMB(), "MB"},
	}
	var report []string
	report = append(report, fmt.Sprintf("setup_s %.4f (median of %d set-ups: %s)", median(setups), len(setups), fmtList(setups)))
	report = append(report, fmt.Sprintf("ops_per_s %.2f (median of %d windows: %s; overall %d ops in %.2fs)",
		median(rates), len(rates), fmtList(rates), done, secs))
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	report = append(report, fmt.Sprintf("failed_ops_ratio %.6f (%d of %d)", ratio, failed, attempted))
	kinds := make([]string, 0, len(lat))
	for k := range lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s := class([]string{k})
		report = append(report, "op "+fmtQuantiles(k, s, 1e6, "ms"))
	}
	if name == "namespace" {
		report = append(report,
			fmtQuantiles("lookup", reads, 1e3, "us")+" stat and ls",
			fmtQuantiles("mutate", writes, 1e3, "us")+" create, rename and delete")
	} else {
		report = append(report,
			fmt.Sprintf("io_MBps %.2f (%d bytes read and written)", float64(bytes)/(1<<20)/secs, bytes),
			fmtQuantiles("read", reads, 1e6, "ms"), fmtQuantiles("write", writes, 1e6, "ms"))
	}
	return e2eResult{metrics: m, report: report}
}

// quantile returns the q-quantile of an ascending sample set by the
// nearest-rank method, so every returned value was observed (the
// same rule as internal/bench's exactQuantile).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// fmtQuantiles renders the p50, p90 and p99 of an ascending sample
// set of nanoseconds, divided by div into unit, with the sample count.
func fmtQuantiles(name string, sorted []float64, div float64, unit string) string {
	return fmt.Sprintf("%[1]s_p50_%[2]s %.3[3]f %[1]s_p90_%[2]s %.3[4]f %[1]s_p99_%[2]s %.3[5]f (n=%[6]d)", name, unit,
		quantile(sorted, 0.5)/div, quantile(sorted, 0.9)/div, quantile(sorted, 0.99)/div, len(sorted))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 && n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return quantile(s, 0.5)
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
