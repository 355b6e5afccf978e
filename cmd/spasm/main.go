// Command spasm is the reproduction's one experiment binary:
//
//	spasm [run] -app fft -machine target -topo mesh -p 16
//	spasm figures -fig 7
//	spasm study all
//	spasm trace record|info|replay
//	spasm help
//
// README.md "Commands" says what each subcommand regenerates; every
// table any of them prints is built in internal/report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"spasm"
	"spasm/internal/apps"
)

const usage = `usage: spasm <command> [flags]

  run      one application on one machine, overheads separated
           (the default: "spasm -app fft -p 16" means "spasm run ...")
  figures  the paper's figures 1-20 and the accuracy dashboard
  study    the paper's textual experiments and the extension studies
           ("spasm study" lists them)
  trace    record, inspect and replay shared-memory reference traces

"spasm <command> -h" lists a command's flags; "spasm -h" lists run's.
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli carries the two output streams through a subcommand.  listed
// marks an invocation that named no command: its flag help (run's)
// follows the command list.
type cli struct {
	out, errw io.Writer
	listed    bool
}

// run dispatches one invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{out: stdout, errw: stderr, listed: true}
	name := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args, c.listed = args[0], args[1:], false
	}
	var err error
	switch name {
	case "help":
		fmt.Fprint(stdout, usage)
	case "run":
		err = c.runOne(args)
	case "figures":
		err = c.figures(args)
	case "study":
		err = c.study(args)
	case "trace":
		err = c.trace(args)
	default:
		err = usageError{fmt.Sprintf("unknown command %q", name), usage}
	}
	if err != nil {
		return fail(stderr, err)
	}
	return 0
}

// usageError is a command-line mistake; fail prints it above the usage
// text that would have prevented it.  The zero value marks a mistake the
// FlagSet has already reported (a bad flag, or -h).
type usageError struct{ msg, usage string }

func (e usageError) Error() string { return e.msg }

// fail reports err and maps it to an exit status: 2 for command-line
// mistakes, 1 for everything that went wrong afterwards.  The library's
// spec errors carry the "spasm:" prefix already; it is printed once.
func fail(stderr io.Writer, err error) int {
	var ue usageError
	if !errors.As(err, &ue) {
		fmt.Fprintln(stderr, "spasm:", strings.TrimPrefix(err.Error(), "spasm: "))
		return 1
	}
	if ue.msg != "" {
		fmt.Fprintf(stderr, "spasm: %s\n%s", ue.msg, ue.usage)
	}
	return 2
}

// flags returns the flag set of one subcommand.
func (c *cli) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("spasm "+name, flag.ContinueOnError)
	fs.SetOutput(c.errw)
	if c.listed {
		fs.Usage = func() {
			fmt.Fprintf(c.errw, "%s\nUsage of %s:\n", usage, fs.Name())
			fs.PrintDefaults()
		}
	}
	return fs
}

func parse(fs *flag.FlagSet, args []string) error {
	if fs.Parse(args) != nil {
		return usageError{}
	}
	return nil
}

// simFlags are the flags that say what to simulate.  A subcommand
// registers the groups it reads, with its own defaults, and resolves
// them through spec (one point) or options (a sweep) — the binary's only
// flag-to-Spec and flag-to-Options conversions.
type simFlags struct {
	app, machine, topo, scale, procs string
	p, workers                       int
	seed                             int64
}

func (f *simFlags) addMachine(fs *flag.FlagSet, machine string) {
	fs.StringVar(&f.machine, "machine", machine, "machine: ideal, flow, logp, clogp, target")
	fs.StringVar(&f.topo, "topo", "full", "topology: full, cube, mesh, ring, torus")
}

func (f *simFlags) addPoint(fs *flag.FlagSet, machine, scale string) {
	fs.StringVar(&f.app, "app", "fft", "application: "+strings.Join(apps.Names(), ", ")+
		", or the extension workloads "+strings.Join(apps.ExtendedNames(), ", "))
	f.addMachine(fs, machine)
	fs.IntVar(&f.p, "p", 8, pUsage())
	f.addScale(fs, scale)
}

// pUsage is the -p help text: every machine kind with its processor limit,
// then every workload the app registry limits further, per scale.
func pUsage() string {
	var kinds, workloads []string
	for _, k := range spasm.Machines() {
		kinds = append(kinds, fmt.Sprintf("%v %d", k, spasm.MaxPFor(k)))
	}
	for _, name := range append(apps.Names(), apps.ExtendedNames()...) {
		var ps, scales []string
		for _, sc := range []apps.Scale{apps.Tiny, apps.Small, apps.Medium} {
			if max := apps.MaxP(name, sc); max > 0 {
				ps, scales = append(ps, strconv.Itoa(max)), append(scales, sc.String())
			}
		}
		if ps != nil {
			workloads = append(workloads, fmt.Sprintf("; %s %s at %s", name, strings.Join(ps, "/"), strings.Join(scales, "/")))
		}
	}
	return "processors (power of two; at most " + strings.Join(kinds, ", ") + strings.Join(workloads, "") + ")"
}

func (f *simFlags) addScale(fs *flag.FlagSet, scale string) {
	fs.StringVar(&f.scale, "scale", scale, "problem scale: tiny, small, medium")
	fs.Int64Var(&f.seed, "seed", 1, "synthetic-input seed")
}

func (f *simFlags) addSweep(fs *flag.FlagSet, procs string) {
	f.addScale(fs, "small")
	fs.StringVar(&f.procs, "procs", procs, "processor sweep")
}

// spec resolves the single-point flags.
func (f *simFlags) spec() (spasm.Spec, error) {
	kind, err := spasm.ParseKind(f.machine)
	if err != nil {
		return spasm.Spec{}, err
	}
	sc, err := spasm.ParseScale(f.scale)
	if err != nil {
		return spasm.Spec{}, err
	}
	return spasm.Spec{App: f.app, Scale: sc, Seed: f.seed, Machine: kind,
		Topology: f.topo, P: f.p, Workers: f.workers}, nil
}

// options resolves the sweep flags.
func (f *simFlags) options() (spasm.Options, error) {
	sc, err := spasm.ParseScale(f.scale)
	if err != nil {
		return spasm.Options{}, err
	}
	procs, err := spasm.ParseProcs(f.procs)
	if err != nil {
		return spasm.Options{}, err
	}
	return spasm.Options{Scale: sc, Procs: procs, Seed: f.seed}, nil
}
