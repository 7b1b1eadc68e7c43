package main

import (
	"bytes"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	nfvchain "nfvchain"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-op invocation should error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "fig99", "-fast"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunFigureWithCSVAndPlot(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-fig", "fig12", "-placement-trials", "1", "-scheduling-trials", "4",
		"-csv", dir, "-plot",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig12.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,RCKK,CGA") {
		t.Errorf("csv header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunDemo(t *testing.T) {
	if err := run([]string{"-demo", "-requests", "40", "-vnfs", "8", "-nodes", "6"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDemoAlgorithmSelection(t *testing.T) {
	if err := run([]string{"-demo", "-requests", "30", "-placer", "nah", "-scheduler", "cga"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-demo", "-requests", "30", "-placer", "wfd", "-improve"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-demo", "-placer", "nope"}); err == nil {
		t.Error("unknown placer accepted")
	}
	if err := run([]string{"-demo", "-scheduler", "nope"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestRunDemoSimulateJSON pins -json to emitting exactly the daemon's
// Results wire format on stdout: parseable by ReadResultsJSON and free of
// the human report lines.
func TestRunDemoSimulateJSON(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-demo", "-simulate", "-json", "-requests", "20", "-vnfs", "6", "-nodes", "4"}
	if err := runTo(args, &buf); err != nil {
		t.Fatal(err)
	}
	res, err := nfvchain.ReadResultsJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("stdout is not a Results document: %v\n%s", err, buf.String())
	}
	if res.Delivered == 0 || res.Horizon != 60 {
		t.Errorf("implausible simulation results: delivered=%d horizon=%v", res.Delivered, res.Horizon)
	}
	if strings.Contains(buf.String(), "workload:") {
		t.Error("human report leaked onto stdout in -json mode")
	}
}

// TestRunJSONRequiresSimulate pins the flag dependency.
func TestRunJSONRequiresSimulate(t *testing.T) {
	err := run([]string{"-demo", "-json", "-requests", "20"})
	if err == nil || !strings.Contains(err.Error(), "-simulate") {
		t.Errorf("got %v, want an error demanding -simulate", err)
	}
}

func TestChooseAlgorithms(t *testing.T) {
	placers := []string{"bfdsu", "ffd", "bfd", "wfd", "nah", "exact"}
	schedulers := []string{"rckk", "cga", "ckk", "roundrobin", "exact"}
	for _, p := range placers {
		algs, err := chooseAlgorithms(p, "rckk", 1)
		if err != nil || algs.placer == nil {
			t.Errorf("placer %s: %v", p, err)
		}
	}
	for _, s := range schedulers {
		algs, err := chooseAlgorithms("bfdsu", s, 1)
		if err != nil || algs.scheduler == nil {
			t.Errorf("scheduler %s: %v", s, err)
		}
	}
}

// TestChooseFaultsRepairMode round-trips every -repair rung through the
// label the report prints and rejects unknown modes.
func TestChooseFaultsRepairMode(t *testing.T) {
	for _, p := range []nfvchain.ControlPolicy{nfvchain.ControlNone, nfvchain.ControlReschedule, nfvchain.ControlRepair} {
		got, err := chooseFaults(10, 1, "drop", repairLabel(p), 0.5)
		if err != nil || got.repair != p {
			t.Errorf("chooseFaults(-repair %q) = %v, %v", repairLabel(p), got.repair, err)
		}
	}
	for _, mode := range []string{"bogus", "repair", "autoscale"} {
		if _, err := chooseFaults(10, 1, "drop", mode, 0.5); err == nil {
			t.Errorf("chooseFaults accepted -repair %q", mode)
		}
	}
}

func TestRunDemoWritesSolution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sol.json")
	if err := run([]string{"-demo", "-requests", "20", "-vnfs", "6", "-nodes", "4", "-out", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"placement"`, `"schedule"`, `"problem"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("solution file missing %s", want)
		}
	}
}

func TestRunSolve(t *testing.T) {
	// Generate a problem file with the library, then solve it.
	const problemJSON = `{
  "nodes": [{"id": "n1", "capacity": 1000}],
  "vnfs": [{"id": "fw", "instances": 1, "demand": 10, "serviceRate": 500}],
  "requests": [{"id": "r1", "chain": ["fw"], "rate": 50, "deliveryProb": 0.98}]
}`
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, []byte(problemJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-solve", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-solve", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing problem file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-solve", bad}); err == nil {
		t.Error("malformed problem accepted")
	}
}

func TestRunDemoPortfolio(t *testing.T) {
	var buf bytes.Buffer
	err := runTo([]string{
		"-demo", "-requests", "40", "-vnfs", "8", "-nodes", "6",
		"-solver", "portfolio:greedy,sa:iters=2000,lns:iters=40",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"racing portfolio", "incumbent", "race: winner", "placement (portfolio)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDemoPortfolioDeadline(t *testing.T) {
	var buf bytes.Buffer
	// Unbounded SA: only the deadline ends the race, best-so-far returned.
	err := runTo([]string{
		"-demo", "-requests", "30", "-vnfs", "6", "-nodes", "5",
		"-solver", "portfolio:greedy,sa:iters=0;cooling=0.999999", "-deadline-ms", "300",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "deadline expired, best-so-far returned") {
		t.Errorf("deadline race did not report best-so-far:\n%s", buf.String())
	}
}

func TestRunPortfolioFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-demo", "-solver", "warp-drive"},                      // unknown solver mode
		{"-demo", "-solver", "portfolio:nope"},                  // unknown portfolio member
		{"-demo", "-solver", "portfolio:sa:t0=NaN"},             // bad parameter
		{"-demo", "-solver", "portfolio", "-deadline-ms", "-1"}, // negative deadline
		{"-demo", "-deadline-ms", "100"},                        // deadline without portfolio
		{"-demo", "-solver", "portfolio", "-improve"},           // redundant polish
		{"-demo", "-solver", "portfolio", "-datacenters", "2"},  // not wired into cluster mode
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("accepted %v", args)
		}
	}
}

// TestRunSeedReproducible pins -seed: the seed drives workload generation,
// placement and simulation, so one seed reproduces -json output byte for
// byte and another seed changes it.
func TestRunSeedReproducible(t *testing.T) {
	simulate := func(seed string) string {
		var buf bytes.Buffer
		args := []string{"-demo", "-simulate", "-json", "-requests", "20", "-vnfs", "6", "-nodes", "4", "-seed", seed}
		if err := runTo(args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := simulate("3")
	if again := simulate("3"); again != first {
		t.Error("the same -seed gave different -json output")
	}
	if other := simulate("4"); other == first {
		t.Error("a different -seed gave identical -json output")
	}
}

// TestRunRejectsZeroRetransmitDelay pins -retransmit-delay: retransmitting
// packets caught at failed nodes needs a positive NACK round-trip.
func TestRunRejectsZeroRetransmitDelay(t *testing.T) {
	err := run([]string{"-demo", "-simulate", "-requests", "20", "-vnfs", "6", "-nodes", "4",
		"-mtbf", "30", "-failurepolicy", "retransmit", "-retransmit-delay", "0"})
	if err == nil || !strings.Contains(err.Error(), "FailRetransmit requires a positive") {
		t.Errorf("got %v, want FailRetransmit's positive RetransmitDelay error", err)
	}
}

// controllerDemo is the fault-injected demo the controller pins run: a
// small generated deployment under random node failures (MTBF 20 s, MTTR
// 4 s) over the default 60 s horizon.
var controllerDemo = []string{"-demo", "-simulate", "-requests", "40", "-vnfs", "8", "-nodes", "6", "-mtbf", "20", "-mttr", "4"}

// preemptDemo is the same deployment with correlated preemption (one
// two-node group every 10 s on average) as its only fault source.
var preemptDemo = []string{"-demo", "-simulate", "-requests", "40", "-vnfs", "8", "-nodes", "6", "-preempt-interval", "10"}

// TestRunControllerPaths pins the FNV-1a hash of the report (or, with -json,
// the Results document) of a fault-injected demo under each way nfvsim
// attaches a self-healing controller, so a refactor of the controllers that
// moves any simulated packet, repair count or stat fails here. The
// preemption-only case pins that -repair acts without -mtbf. The values
// were recorded on linux/amd64; see TestExperimentFingerprints for why other
// architectures skip.
func TestRunControllerPaths(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("report hashes are pinned on amd64, not %s", runtime.GOARCH)
	}
	cases := []struct {
		name string
		demo []string
		args []string
		want uint64
	}{
		{"repair reschedule", controllerDemo, []string{"-repair", "reschedule"}, 0xdd3edeef95c3f1db},
		{"repair replace", controllerDemo, []string{"-repair", "replace"}, 0x6b74ca5c157fbaf7},
		{"control repair", controllerDemo, []string{"-control", "repair"}, 0x80360341456381e1},
		{"control autoscale+migrate", controllerDemo, []string{"-control", "autoscale+migrate", "-preempt-interval", "10", "-preempt-lead", "0.5"}, 0x3a7fc01ba667c5be},
		{"repair replace json", controllerDemo, []string{"-repair", "replace", "-json"}, 0x6e6284bb554605d4},
		{"repair replace preemption only", preemptDemo, []string{"-repair", "replace"}, 0x22342261d171026},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runTo(slices.Concat(tc.demo, tc.args), &buf); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if got := h.Sum64(); got != tc.want {
				t.Errorf("report hash %#x, want %#x:\n%s", got, tc.want, buf.String())
			}
		})
	}
}

// TestRunControllerFlagSpellings pins the values -repair and -control accept
// (each names a rung of the self-healing ladder, which the report line
// spells back) and the ones they reject, including the conflict when both
// flags pick a rung.
func TestRunControllerFlagSpellings(t *testing.T) {
	tiny := []string{"-demo", "-simulate", "-requests", "20", "-vnfs", "6", "-nodes", "4", "-mtbf", "20"}
	accepted := []struct {
		flag, value, line string // line == "" means no controller report line
	}{
		{"-repair", "none", ""},
		{"-repair", "reschedule", "repair (reschedule):"},
		{"-repair", "replace", "repair (replace):"},
		{"-repair", "reschedule+replace", "repair (replace):"},
		{"-control", "none", ""},
		{"-control", "reschedule", "control (reschedule):"},
		{"-control", "repair", "control (repair):"},
		{"-control", "autoscale", "control (autoscale):"},
		{"-control", "autoscale+migrate", "control (autoscale+migrate):"},
		{"-control", "migrate", "control (autoscale+migrate):"},
	}
	for _, tc := range accepted {
		var buf bytes.Buffer
		if err := runTo(append(slices.Clone(tiny), tc.flag, tc.value), &buf); err != nil {
			t.Errorf("%s %s: %v", tc.flag, tc.value, err)
			continue
		}
		out := buf.String()
		if tc.line == "" {
			if strings.Contains(out, "repair (") || strings.Contains(out, "control (") {
				t.Errorf("%s %s reported a controller:\n%s", tc.flag, tc.value, out)
			}
		} else if !strings.Contains(out, "\n"+tc.line) {
			t.Errorf("%s %s: report lacks %q:\n%s", tc.flag, tc.value, tc.line, out)
		}
	}
	for _, args := range [][]string{
		{"-repair", "bogus"},
		{"-repair", "autoscale"},
		{"-control", "bogus"},
		{"-control", "replace"},
	} {
		if err := run(append(slices.Clone(tiny), args...)); err == nil {
			t.Errorf("accepted %v", args)
		}
	}
	err := run(append(slices.Clone(tiny), "-control", "repair", "-repair", "replace"))
	if want := "-control repair subsumes -repair replace; drop one of them"; err == nil || err.Error() != want {
		t.Errorf("got %v, want %q", err, want)
	}
}
