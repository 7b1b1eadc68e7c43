package main

import (
	"bytes"
	"os"
	"path/filepath"
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
