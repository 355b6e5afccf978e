package main

import (
	"bytes"
	"fmt"
	"os"

	"spasm"
)

const traceUsage = `usage: spasm trace record [flags]          record a reference trace (-o file)
       spasm trace info <file>              summarize a recorded trace
       spasm trace replay [flags] <file>    trace-driven run on another machine
`

// trace is "spasm trace": record, inspect and replay shared-memory
// reference traces — the trace-driven counterpart to the simulator's
// native execution-driven mode.
func (c *cli) trace(args []string) error {
	if len(args) == 0 {
		return usageError{"trace needs record, info or replay", traceUsage}
	}
	switch verb, args := args[0], args[1:]; verb {
	case "record":
		return c.traceRecord(args)
	case "info":
		if len(args) != 1 {
			return usageError{"trace info takes one file", traceUsage}
		}
		return c.traceInfo(args[0])
	case "replay":
		return c.traceReplay(args)
	default:
		return usageError{fmt.Sprintf("unknown trace verb %q", verb), traceUsage}
	}
}

func (c *cli) traceRecord(args []string) error {
	fs := c.flags("trace record")
	var f simFlags
	f.addPoint(fs, "clogp", "tiny")
	out := fs.String("o", "app.trace", "output file")
	if err := parse(fs, args); err != nil {
		return err
	}
	spec, err := f.spec()
	if err != nil {
		return err
	}
	tr, res, err := spasm.RecordTrace(spec.App, spec.Scale, spec.Seed, spec.Config())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "recorded %d events (%d regions) from %s on %v/%s p=%d -> %s\n",
		len(tr.Events), len(tr.Regions), spec.App, spec.Machine, spec.Topology, spec.P, *out)
	fmt.Fprintf(c.out, "execution-driven time on the recording machine: %.1f us\n",
		res.Stats.Total.Micros())
	return nil
}

func (c *cli) traceInfo(path string) error {
	tr, err := loadTrace(path)
	if err != nil {
		return err
	}
	reads, writes := 0, 0
	for _, e := range tr.Events {
		if e.Write {
			writes++
		} else {
			reads++
		}
	}
	fmt.Fprintf(c.out, "%s: p=%d, %d regions, %d events (%d reads, %d writes)\n",
		path, tr.P, len(tr.Regions), len(tr.Events), reads, writes)
	for _, r := range tr.Regions {
		fmt.Fprintf(c.out, "  region %-16s n=%-8d elem=%dB policy=%v base=%#x\n",
			r.Name, r.N, r.ElemSize, r.Policy, uint64(r.Base))
	}
	return nil
}

func (c *cli) traceReplay(args []string) error {
	fs := c.flags("trace replay")
	var f simFlags
	f.addMachine(fs, "target")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError{"trace replay takes one file", traceUsage}
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	kind, err := spasm.ParseKind(f.machine)
	if err != nil {
		return err
	}
	res, err := spasm.ReplayTrace(tr, spasm.Config{Kind: kind, Topology: f.topo, P: tr.P})
	if err != nil {
		return err
	}
	r := res.Stats
	fmt.Fprintf(c.out, "trace-driven replay on %v/%s p=%d:\n", kind, f.topo, tr.P)
	fmt.Fprintf(c.out, "  execution time : %12.1f us\n", r.Total.Micros())
	fmt.Fprintf(c.out, "  latency        : %12.1f us\n", r.Sum(spasm.Latency).Micros())
	fmt.Fprintf(c.out, "  contention     : %12.1f us\n", r.Sum(spasm.Contention).Micros())
	fmt.Fprintf(c.out, "  messages       : %12d\n", r.Messages())
	return nil
}

func loadTrace(path string) (*spasm.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spasm.DecodeTrace(f)
}
