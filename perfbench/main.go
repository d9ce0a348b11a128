// Command perfbench is the repository benchmark: three seeded,
// closed-loop workloads (stream, namespace, tiered) run against an
// in-process OctopusFS cluster. An untraced run prints the end-to-end
// metrics; a traced run (-trace 1) prints the per-layer metrics taken
// from spans around every client call and from the records and
// counters the daemons already keep. Every run checks that the
// program's outputs are correct and exits non-zero when they are not.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.py from the root of a source checkout:
//
//	python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: stream, namespace or tiered")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	sz, ok := defaultSizes[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload stream|namespace|tiered -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(*name, sz, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run: the header, a human-readable
// report and the metrics of the final JSON line.
type result struct {
	Header    header
	Report    []string
	Correct   bool
	Problems  []string
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

// printResult writes the run header, the report and, as the last
// line, the JSON result object.
func printResult(res *result) {
	h, _ := json.Marshal(map[string]any{"header": res.Header})
	fmt.Println(string(h))
	for _, line := range res.Report {
		fmt.Println(line)
	}
	for _, p := range res.Problems {
		fmt.Println("CHECK FAILED:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(out))
}
