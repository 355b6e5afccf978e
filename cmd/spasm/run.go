package main

import (
	"encoding/json"
	"fmt"

	"spasm"
	"spasm/internal/report"
)

// runOne is "spasm run": one application on one simulated machine,
// printed as the SPASM-style separation of overheads.
func (c *cli) runOne(args []string) error {
	fs := c.flags("run")
	var f simFlags
	f.addPoint(fs, "target", "small")
	fs.IntVar(&f.workers, "workers", 0, "parallel host execution for reference streams on logp; "+
		"every other run reports a fallback (bit-identical results; 0 or 1 = sequential)")
	var (
		perCls  = fs.Bool("perclass", false, "use per-event-class g gap (LogP machines)")
		verbose = fs.Bool("v", false, "per-processor breakdown")
		phases  = fs.Bool("phases", false, "per-phase overhead breakdown")
		asJSON  = fs.Bool("json", false, "machine-readable output: the spasmd run document plus a host block")
		profile = fs.String("profile", "", "time-resolved profile: '-' prints a per-epoch table, anything else is a CSV output path")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	spec, err := f.spec()
	if err != nil {
		return err
	}
	if *perCls {
		spec.PortMode = spasm.PerClassGap
	}
	var opt spasm.RunOptions
	if *profile != "" {
		// Profiling hooks the engine clock, which the parallel mode
		// declines: -workers then reports a "tick-hook" fallback.
		opt.Profile = &spasm.ProfileConfig{}
	}
	res, prof, err := spasm.Execute(spec, opt)
	if err != nil {
		return err
	}
	doc := report.RunJSON(res)
	report.AttachHost(&doc, res)
	if *asJSON {
		enc := json.NewEncoder(c.out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	c.printRun(res, doc)
	if *verbose {
		fmt.Fprintf(c.out, "\n%s", report.ProcTable(res.Stats))
	}
	if *phases {
		fmt.Fprintf(c.out, "\n%s", spasm.PhaseReport(res))
	}
	if prof == nil {
		return nil
	}
	if *profile == "-" {
		return c.printProfile(prof, true, "")
	}
	return c.printProfile(prof, false, *profile)
}

// printProfile surfaces a time-resolved run profile: a peak-pressure
// summary, then the per-epoch table if asked for and a CSV file if given
// a path.
func (c *cli) printProfile(prof *spasm.Profile, table bool, csvPath string) error {
	epoch, total := prof.Peak(spasm.Contention)
	fmt.Fprintf(c.out, "\nprofile        : %d epochs of %v\n", len(prof.Epochs), prof.EpochLen)
	fmt.Fprintf(c.out, "peak contention: epoch %d (t=%v), %v summed over procs\n",
		epoch, prof.EpochStart(epoch), total)
	if table {
		fmt.Fprintf(c.out, "\n%s", spasm.ProfileTable(prof))
	}
	if csvPath == "" {
		return nil
	}
	return c.writeFile(csvPath, spasm.ProfileCSV(prof))
}

func (c *cli) printRun(res *spasm.Result, doc report.RunDoc) {
	r := res.Stats
	fmt.Fprintf(c.out, "%s on %v/%s, p=%d\n", res.Program, res.Config.Kind, res.Config.Topology, r.P())
	fmt.Fprintf(c.out, "  execution time : %12.1f us\n", r.Total.Micros())
	for _, b := range []spasm.Bucket{spasm.Compute, spasm.Memory, spasm.Latency, spasm.Contention, spasm.Sync} {
		fmt.Fprintf(c.out, "  %-10s sum : %12.1f us   (mean %.1f us/proc)\n",
			b, r.Sum(b).Micros(), r.Mean(b).Micros())
	}
	fmt.Fprintf(c.out, "  references     : %d reads, %d writes\n", doc.Reads, doc.Writes)
	fmt.Fprintf(c.out, "  cache          : %d hits, %d misses\n", doc.Hits, doc.Misses)
	fmt.Fprintf(c.out, "  network        : %d messages, %d bytes, %d accesses\n",
		doc.Messages, doc.NetBytes, r.NetAccesses())
	fmt.Fprintf(c.out, "  simulation     : %d events in %v (%.0f refs/s, %.0f msgs/s)\n",
		r.SimEvents, r.Wall, doc.Host.RefsPerSec, doc.Host.MsgsPerSec)
	if par := res.Par; par != nil {
		if par.Parallel {
			fmt.Fprintf(c.out, "  parallel       : %d workers\n", par.Requested)
		} else {
			fmt.Fprintf(c.out, "  parallel       : requested %d workers, fell back to sequential (%s)\n",
				par.Requested, par.Fallback)
		}
	}
}
