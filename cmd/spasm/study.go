package main

import (
	"fmt"
	"strconv"
	"strings"

	"spasm"
	"spasm/internal/report"
)

// studyUsage lists the registered studies; it is the text "spasm study"
// prints for a missing or unknown name.
func studyUsage() string {
	var b strings.Builder
	b.WriteString("usage: spasm study <name>|all|batch [flags]\n\n")
	for _, s := range report.Studies() {
		fmt.Fprintf(&b, "  %-10s %s\n", s.Name, s.Claim)
	}
	b.WriteString("  all        every study above\n")
	b.WriteString("  batch      throughput utility: apps x machines x -procs (or -points) on the batch scheduler\n")
	b.WriteString("\n\"spasm study <name> -h\" lists the flags.\n")
	return b.String()
}

// study is "spasm study": the extension studies and the paper's textual
// experiments, looped over the report.Studies registry on one session, so
// a point several of them need is simulated once.  "batch" is not a
// study: it runs explicit points on a session's RunBatch — the bounded
// worker pool with pooled run contexts — and prints one row per point in
// input order.
func (c *cli) study(args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return usageError{"study needs a name", studyUsage()}
	}
	name := args[0]
	fs := c.flags("study " + name)
	var f simFlags
	f.addSweep(fs, "2,4,8,16,32")
	fs.StringVar(&f.app, "app", "", "application (default: the study's own)")
	fs.StringVar(&f.topo, "topo", "", "topology (default: the study's own)")
	fs.IntVar(&f.p, "p", 16, "processors for the single-point studies")
	var (
		points   = fs.String("points", "", "batch: points as app:topo:machine:p, comma-separated (default: apps x machines x -procs on -topo)")
		parallel = fs.Int("parallel", 4, "batch: concurrent simulations")
	)
	if err := parse(fs, args[1:]); err != nil {
		return err
	}
	opt, err := f.options()
	if err != nil {
		return err
	}

	if name == "batch" {
		topo := f.topo
		if topo == "" {
			topo = "full"
		}
		pts, err := parsePoints(*points, topo, opt.Procs)
		if err != nil {
			return err
		}
		opt.Parallel = *parallel
		runs, err := spasm.NewSession(opt).RunBatch(pts)
		if err != nil {
			return err
		}
		fmt.Fprintln(c.out, report.BatchTable(*parallel, pts, runs))
		return nil
	}

	sess := spasm.NewSession(opt)
	ran := false
	for _, s := range report.Studies() {
		if name != "all" && name != s.Name {
			continue
		}
		t, err := s.Run(sess, report.StudyArgs{App: f.app, Topo: f.topo, P: f.p})
		if err != nil {
			return fmt.Errorf("study %s: %w", s.Name, err)
		}
		fmt.Fprintln(c.out, t)
		ran = true
	}
	if !ran {
		return usageError{fmt.Sprintf("unknown study %q", name), studyUsage()}
	}
	return nil
}

// parsePoints turns "app:topo:machine:p,..." into batch points, or, when
// spec is empty, expands the default cross product of the application
// suite, the three networked machines, and the -procs sweep on topo.
func parsePoints(spec, topo string, procs []int) ([]spasm.BatchPoint, error) {
	var pts []spasm.BatchPoint
	if spec == "" {
		for _, app := range spasm.Apps() {
			for _, kind := range []spasm.Kind{spasm.LogP, spasm.CLogP, spasm.Target} {
				for _, p := range procs {
					pts = append(pts, spasm.BatchPoint{App: app, Config: spasm.Config{Kind: kind, Topology: topo, P: p}})
				}
			}
		}
		return pts, nil
	}
	for _, field := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(field), ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad point %q (want app:topo:machine:p)", field)
		}
		kind, err := spasm.ParseKind(parts[2])
		if err != nil {
			return nil, fmt.Errorf("point %q: %w", field, err)
		}
		p, err := strconv.Atoi(parts[3])
		if err != nil || p < 1 {
			return nil, fmt.Errorf("point %q: bad processor count %q", field, parts[3])
		}
		pts = append(pts, spasm.BatchPoint{App: parts[0], Config: spasm.Config{Kind: kind, Topology: parts[1], P: p}})
	}
	return pts, nil
}
