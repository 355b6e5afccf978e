package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spasm"
	"spasm/internal/apps"
	"spasm/internal/report"
	"spasm/internal/service"
	"spasm/internal/service/client"
)

// The files under testdata/ were recorded from the five binaries this
// one replaced (experiments, sweep, trace, spasm at the commit before
// the merge), at tiny scale.  The subcommands must keep printing the
// same titles, headers and values; only padding and the rule under each
// header may differ.

// spasmRun invokes the dispatcher and fails the test on a non-zero exit.
func spasmRun(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("spasm %v: exit %d\n%s", args, code, errb.String())
	}
	return out.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cells reduces output to its whitespace-separated cells, one string
// per non-blank line, dropping table rules and any line skip matches.
func cells(s string, skip func(line string) bool) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Trim(line, "- ") == "" || (skip != nil && skip(line)) {
			continue
		}
		out = append(out, strings.Join(strings.Fields(line), " "))
	}
	return out
}

func sameCells(t *testing.T, got, want string, skip func(string) bool) {
	t.Helper()
	g, w := cells(got, skip), cells(want, skip)
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d:\n got  %q\n want %q", i, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%d lines, want %d\n%s", len(g), len(w), got)
	}
}

func TestFiguresCSVByteIdentical(t *testing.T) {
	got := spasmRun(t, "figures", "-scale", "tiny", "-procs", "2,4", "-format", "csv")
	if want := golden(t, "figures.csv"); got != want {
		t.Errorf("per-figure CSV drifted from the recorded experiments output:\n%s", got)
	}
}

func TestSubcommandsMatchRecordedOutput(t *testing.T) {
	wallClock := func(line string) bool { return strings.Contains(line, "simulation     :") }
	for _, tc := range []struct {
		file string
		skip func(string) bool
		args []string
	}{
		{"accuracy.txt", nil, []string{"figures", "-accuracy", "-format", "", "-scale", "tiny", "-procs", "2,4"}},
		{"errors.txt", nil, []string{"study", "error", "-scale", "tiny", "-procs", "2,4"}},
		{"batch.txt", nil, []string{"study", "batch", "-scale", "tiny", "-procs", "2", "-points", "fft:mesh:target:4,ep:full:logp:2"}},
		{"run.txt", wallClock, []string{"-app", "fft", "-machine", "target", "-topo", "mesh", "-p", "4", "-scale", "tiny", "-v", "-phases"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			sameCells(t, spasmRun(t, tc.args...), golden(t, tc.file), tc.skip)
		})
	}
	// The paper's textual experiments are study entries.
	t.Run("textual.txt", func(t *testing.T) {
		sweep := []string{"-scale", "tiny", "-procs", "2,4"}
		got := spasmRun(t, append([]string{"study", "gtable"}, sweep...)...) +
			spasmRun(t, append([]string{"study", "ablation"}, sweep...)...)
		sameCells(t, got, golden(t, "textual.txt"), nil)
	})
}

// TestUnsupportedP: a processor count the network cannot take fails the
// command with the network's rule, not a panic; the ideal machine, which
// builds no network, takes any P.
func TestUnsupportedP(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-app", "ep", "-p", "3", "-scale", "tiny"},
		{"run", "-app", "ep", "-p", "1", "-scale", "tiny"},
		{"run", "-app", "ep", "-p", "6", "-topo", "torus", "-scale", "tiny"},
		{"study", "topo", "-procs", "3", "-scale", "tiny"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("spasm %v: exit %d, want 1\n%s", args, code, errb.String())
		}
		if msg := errb.String(); !strings.Contains(msg, "must be a power of two") || strings.Contains(msg, "goroutine") {
			t.Errorf("spasm %v: stderr does not state the rule cleanly:\n%s", args, msg)
		}
	}
	out := spasmRun(t, "run", "-app", "ep", "-machine", "ideal", "-p", "3", "-scale", "tiny")
	if !strings.Contains(out, "ep on ideal/full, p=3") {
		t.Errorf("ideal p=3:\n%s", out)
	}
}

// TestStudyAllMatchesSweep: every study the old sweep binary printed
// comes out of the registry loop with the same cells, in the same order;
// the registry's additions (speedup, then the textual experiments)
// follow them.
func TestStudyAllMatchesSweep(t *testing.T) {
	got := spasmRun(t, "study", "all", "-scale", "tiny", "-p", "4", "-procs", "2,4")
	i := strings.Index(got, "scalability —")
	if i < 0 {
		t.Fatalf("no speedup study in:\n%s", got)
	}
	sameCells(t, got[:i], golden(t, "study_all.txt"), nil)

	one := spasmRun(t, "study", "fault", "-scale", "tiny", "-procs", "2,4")
	if !strings.Contains(got, one) {
		t.Errorf("\"study fault\" is not a slice of \"study all\":\n%s", one)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fft.trace")
	unpath := func(s string) string { return strings.ReplaceAll(s, path, "fft.trace") }

	rec := spasmRun(t, "trace", "record", "-app", "fft", "-machine", "clogp", "-topo", "full", "-p", "4", "-scale", "tiny", "-o", path)
	sameCells(t, unpath(rec), golden(t, "trace_record.txt"), nil)
	sameCells(t, unpath(spasmRun(t, "trace", "info", path)), golden(t, "trace_info.txt"), nil)
	sameCells(t, spasmRun(t, "trace", "replay", "-machine", "target", "-topo", "mesh", path), golden(t, "trace_replay.txt"), nil)
}

// TestTraceRecordsExtensionWorkloads: "trace record -app" takes every
// name its help lists, the extension workloads too, and the file it
// writes reads back with the run's processor count and regions.
func TestTraceRecordsExtensionWorkloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mg.trace")
	rec := spasmRun(t, "trace", "record", "-app", "mg", "-machine", "clogp", "-topo", "full", "-p", "4", "-scale", "tiny", "-o", path)
	if !strings.Contains(rec, "from mg on clogp/full p=4") {
		t.Errorf("trace record -app mg printed:\n%s", rec)
	}
	info := spasmRun(t, "trace", "info", path)
	if !strings.HasPrefix(info, path+": p=4, ") || !strings.Contains(info, "region mg.") {
		t.Errorf("trace info of an mg trace printed:\n%s", info)
	}
}

// TestRunJSONIsTheServiceDocument: "run -json" emits the document spasmd
// serves (so client.DecodeResult reads it) plus the host block.
func TestRunJSONIsTheServiceDocument(t *testing.T) {
	out := spasmRun(t, "run", "-app", "fft", "-machine", "logp", "-topo", "mesh", "-p", "4", "-scale", "tiny", "-workers", "2", "-json")
	doc, err := client.DecodeResult(&service.RunStatus{State: service.StateDone, Result: []byte(out)})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Program != "fft" || doc.Machine != "logp" || doc.Topology != "mesh" || doc.P != 4 || len(doc.Procs) != 4 {
		t.Errorf("run document: %+v", doc)
	}
	if doc.TotalUS <= 0 || doc.Messages == 0 {
		t.Errorf("empty statistics: %+v", doc)
	}
	h := doc.Host
	if h == nil || h.Workers != 2 || h.WallMS <= 0 || h.RefsPerSec <= 0 || h.MsgsPerSec <= 0 {
		t.Fatalf("host block: %+v", h)
	}
	// The rates are the benchmark's: references and messages over one
	// wall clock, so their ratio is the document's own.
	if got, want := h.RefsPerSec/h.MsgsPerSec, float64(doc.Reads+doc.Writes)/float64(doc.Messages); math.Abs(got-want) > 1e-9*want {
		t.Errorf("refs_per_sec / msgs_per_sec = %v, document says %v", got, want)
	}
	if strings.Contains(out, "events_per_sec") {
		t.Errorf("host block still reports engine events per second:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	var studies []string
	for _, s := range report.Studies() {
		studies = append(studies, s.Name)
	}
	for _, tc := range []struct {
		args  []string
		code  int
		names []string // each must appear in the error text
	}{
		{[]string{"bogus"}, 2, []string{`unknown command "bogus"`, "run", "figures", "study", "trace"}},
		{[]string{"study"}, 2, append([]string{"all", "batch"}, studies...)},
		{[]string{"study", "nope", "-scale", "tiny"}, 2, append([]string{`unknown study "nope"`}, studies...)},
		{[]string{"trace"}, 2, []string{"record", "info", "replay"}},
		{[]string{"trace", "info"}, 2, []string{"one file"}},
		{[]string{"run", "-no-such-flag"}, 2, []string{"no-such-flag"}},
		{[]string{"-machine", "abacus"}, 1, []string{"abacus"}},
		{[]string{"figures", "-fig", "21", "-scale", "tiny", "-procs", "2"}, 1, []string{"21"}},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("spasm %v: exit %d, want %d\n%s", tc.args, code, tc.code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("spasm %v: wrote to stdout: %s", tc.args, out.String())
		}
		for _, name := range tc.names {
			if !strings.Contains(errb.String(), name) {
				t.Errorf("spasm %v: error text does not mention %q:\n%s", tc.args, name, errb.String())
			}
		}
	}
}

// TestErrorsCarryOnePrefix: a spec or sweep the library rejects is
// reported once as "spasm: <the library's message>", exit 1.
func TestErrorsCarryOnePrefix(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"run", "-p", "0"}, "spasm: spec needs P >= 1, got 0\n"},
		{[]string{"run", "-topo", "nope"}, `spasm: unknown topology "nope" (have [full cube mesh ring torus])` + "\n"},
		{[]string{"figures", "-procs", "4,x"}, `spasm: bad processor count "x"` + "\n"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 1 {
			t.Errorf("spasm %v: exit %d, want 1", tc.args, code)
		}
		if got := errb.String(); got != tc.want {
			t.Errorf("spasm %v: stderr %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestHelp: "spasm help" prints the command list and succeeds; "spasm -h"
// prints it above run's flags, which "spasm run -h" prints alone, its
// -app line naming every registered workload.
func TestHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"help"}, &out, &errb); code != 0 || out.String() != usage || errb.Len() != 0 {
		t.Errorf("spasm help: exit %d, stdout %q, stderr %q; want 0 and the command list on stdout", code, out.String(), errb.String())
	}
	runHelp := func(args ...string) string {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("spasm %v: exit %d, stdout %q; want 2 and nothing", args, code, out.String())
		}
		return errb.String()
	}
	flags := runHelp("run", "-h")
	if !strings.HasPrefix(flags, "Usage of spasm run:\n") || !strings.Contains(flags, "-app string") || strings.Contains(flags, "figures") {
		t.Errorf("spasm run -h:\n%s", flags)
	}
	if got := runHelp("-h"); got != usage+"\n"+flags {
		t.Errorf("spasm -h:\n%s\nwant the command list, a blank line, then:\n%s", got, flags)
	}
	// -app's help names every workload Lookup knows.
	_, app, _ := strings.Cut(flags, "-app string\n")
	app, _, _ = strings.Cut(app, "\n")
	words := map[string]bool{}
	for _, w := range strings.FieldsFunc(app, func(r rune) bool { return r == ',' || r == ':' || r == ' ' || r == '\t' }) {
		words[w] = true
	}
	for _, name := range append(apps.Names(), apps.ExtendedNames()...) {
		if !words[name] {
			t.Errorf("spasm run -h: -app help %q does not name %s", app, name)
		}
	}
}

// TestPUsageNamesEveryLimit: the -p help text lists every machine kind
// with the processor limit Spec.Validate enforces for it, and every
// workload the app registry limits further with its limit at each scale.
func TestPUsageNamesEveryLimit(t *testing.T) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var f simFlags
	f.addPoint(fs, "target", "small")
	usage := fs.Lookup("p").Usage
	seen := map[spasm.Kind]bool{}
	for _, m := range regexp.MustCompile(`(\w+) (\d+)`).FindAllStringSubmatch(usage, -1) {
		kind, err := spasm.ParseKind(m[1])
		if err != nil {
			continue
		}
		if got, want := m[2], strconv.Itoa(spasm.MaxPFor(kind)); got != want {
			t.Errorf("-p help says %v takes %s processors, MaxPFor says %s", kind, got, want)
		}
		seen[kind] = true
	}
	for _, k := range spasm.Machines() {
		if !seen[k] {
			t.Errorf("-p help %q names no limit for %v", usage, k)
		}
	}

	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`(\w+) ([\d/]+) at ([\w/]+)`).FindAllStringSubmatch(usage, -1) {
		ps, scales := strings.Split(m[2], "/"), strings.Split(m[3], "/")
		if len(ps) != len(scales) {
			t.Fatalf("-p help %q: %d limits for %d scales", m[0], len(ps), len(scales))
		}
		for i, name := range scales {
			sc, err := apps.ParseScale(name)
			if err != nil {
				t.Fatal(err)
			}
			if want := strconv.Itoa(apps.MaxP(m[1], sc)); ps[i] != want {
				t.Errorf("-p help says %s takes %s processors at %s, apps.MaxP says %s", m[1], ps[i], name, want)
			}
		}
		named[m[1]] = true
	}
	for _, name := range append(apps.Names(), apps.ExtendedNames()...) {
		for _, sc := range []apps.Scale{apps.Tiny, apps.Small, apps.Medium} {
			if apps.MaxP(name, sc) > 0 && !named[name] {
				t.Errorf("-p help %q names no limit for %s at %v", usage, name, sc)
			}
		}
	}
}
