// Command bench is the repository's benchmark: four workloads, each a
// closed loop, measured in units that mean the same on every machine
// tier (simulated references and messages per host second), with every
// layer timed from outside in a separate traced run.  BENCHMARK.json beside this directory is its contract; README.md
// says what every workload and metric is for.
//
//	bash bench/run.sh --workload paper-target --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh --compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is everything a workload needs to know about this run.
type options struct {
	seed    int64
	seconds time.Duration
	quick   bool
	// clients is both the number of client goroutines and the number of
	// server workers of the service workloads: min(nproc, 2), so the
	// load generator and the server do not fight over more CPUs than
	// there are.
	clients int
	// tmpRoot holds the service workloads' stores and the span files; it
	// is inside the checkout and named in .gitignore.
	tmpRoot string
}

// n scales an operation count down for -quick.
func (o options) n(full int) int {
	if o.quick {
		return full/50 + 1
	}
	return full
}

// setupAgain says whether set-up, done rep times since start, is done
// once more for setup_s's median: three times at least, and a cheap one
// (the cold service's is a round of 20 operations) up to nine times
// while that takes no more than two seconds.
func (o options) setupAgain(rep int, start time.Time) bool {
	if o.quick {
		return rep < 1
	}
	return rep < 3 || rep < 9 && time.Since(start) < 2*time.Second
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed for every Spec.Seed, the service key base and the layer-drive op streams")
	secs := fs.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	quick := fs.Bool("quick", false, "smoke mode: tiny inputs, one pass, p <= 256; numbers mean nothing")
	record := fs.String("record", "", "append each workload's result to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -record files: bench --compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c, err := loadContract()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two record files")
			return 2
		}
		return compareFiles(c, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	o := options{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), quick: *quick,
		clients: min(runtime.NumCPU(), 2), tmpRoot: ".bench_out"}
	if *secs == 0 {
		o.seconds = time.Duration(c.RunSeconds) * time.Second
	}
	if o.quick {
		o.seconds = 50 * time.Millisecond
	}

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range c.Workloads {
			names = append(names, w.Name)
		}
	}
	// Stores and span files go here; .gitignore names it, so a fresh
	// checkout does not have it.
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	host := fingerprint(o)
	fmt.Fprintf(stdout, "# spasm bench: seed=%d %s\n", o.seed, host.line())
	if host.Load1 > float64(host.NProc) {
		fmt.Fprintf(stdout, "# warning: 1-minute load average %.2f exceeds nproc %d; timings will be noisy\n", host.Load1, host.NProc)
	}
	status := 0
	for _, name := range names {
		rec, err := runWorkload(c, name, o, *trace == 1, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if !rec.Correct {
			status = 1
		}
		if *record != "" {
			rec.Host = host
			if err := appendRecord(*record, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		// The result line is the last thing a workload prints.
		line, _ := json.Marshal(rec.outcome)
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return status
}

// outcome is the result line of one run, exactly the keys the contract
// names.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// recordLine is an outcome with what is needed to compare sets of runs.
type recordLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"stats_digest,omitempty"`
	outcome
	Host hostInfo `json:"host"`
}

func appendRecord(path string, rec recordLine) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(data, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runWorkload runs one workload, untraced for the end-to-end metrics or
// traced for the per-layer ones, prints every metric by name, and
// returns the result.
func runWorkload(c *contract, name string, o options, traced bool, stdout io.Writer) (recordLine, error) {
	rec := recordLine{Workload: name, Seed: o.seed, Trace: traced}
	defs := c.EndToEnd
	if traced {
		defs = c.PerLayer
	}
	m := newMetricSet(defs)
	w, ok := workloads[name]
	if !ok {
		return rec, fmt.Errorf("no such workload; BENCHMARK.json lists them")
	}
	var res result
	var tr *tracer
	var err error
	if traced {
		tr = newTracer(name)
		if res, err = w.traced(o, tr, m); err == nil {
			err = layerProfile(o, m, &res.tally)
		}
	} else {
		res, err = w.run(o, m)
	}
	if err != nil {
		return rec, err
	}
	t := res.tally
	rec.Digest = res.digest

	fmt.Fprintf(stdout, "workload %s — %s\n", name, c.why(name))
	for _, d := range defs {
		v, ok := m.vals[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if !traced {
			bound = fmt.Sprintf("  may worsen by %g%%", d.Bound*100)
		}
		fmt.Fprintf(stdout, "  %-34s %16.6g %-8s %s is better%s\n", d.Name, v.Value, d.Unit, d.Better, bound)
	}
	if rec.Digest != "" {
		fmt.Fprintf(stdout, "  stats_digest sha256:%s\n", rec.Digest)
	}
	if traced {
		printSelfTimes(tr, stdout)
		path := filepath.Join(o.tmpRoot, "spans-"+name+".json")
		if err := tr.write(path); err != nil {
			return rec, err
		}
		fmt.Fprintf(stdout, "  %d spans written to %s\n", len(tr.spans), path)
	}
	for _, p := range m.problems() {
		t.fail("metric %s", p)
	}
	for _, note := range t.notes {
		fmt.Fprintf(stdout, "  FAILED %s\n", note)
	}
	fmt.Fprintf(stdout, "  operations attempted %d, failed %d (%.4g%%)\n", t.attempted, t.failed,
		100*float64(t.failed)/float64(max(t.attempted, 1)))
	rec.outcome = outcome{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m.vals}
	return rec, nil
}

// printSelfTimes prints, per layer and call, the host time spent in it
// during the traced pass: each span's duration minus its children's.
func printSelfTimes(tr *tracer, stdout io.Writer) {
	self, count := tr.selfTimes()
	keys := make([]string, 0, len(self))
	for k := range self {
		if !strings.HasPrefix(k, "bench ") { // the harness's own workload, pass and op spans
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return self[keys[i]] > self[keys[j]] })
	for _, k := range keys {
		fmt.Fprintf(stdout, "  self time %-40s %12.3f ms over %d spans\n", k, float64(self[k].Microseconds())/1e3, count[k])
	}
}

// hostInfo is the fingerprint printed in the header and stored with
// every recorded run, so numbers from different hosts are never
// compared by accident.
type hostInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	Clients    int     `json:"clients"`
	// SpinNS is the cost, when the run started, of one step of a dependent
	// multiply-add chain that touches no memory.  It follows the host's
	// clock and nothing else (the recording host switches between two
	// speeds a quarter apart), so it tells a slow host from a slow
	// program.  Information only: no metric is scaled by it.
	SpinNS float64 `json:"spin_ns"`
}

func spinNS() float64 {
	const steps = 4_000_000
	var per []float64
	x := uint64(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		for j := 0; j < steps; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/steps)
	}
	sink += int(x & 1)
	return median(per)
}

func fingerprint(o options) hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Clients: o.clients, SpinNS: spinNS()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(data), &h.Load1)
	}
	// The driver's checkout is not a git repository; the commit is then
	// left unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h hostInfo) line() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s load1=%.2f clients=%d workers=%d spin_ns=%.3f",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Load1, h.Clients, h.Clients, h.SpinNS)
}
